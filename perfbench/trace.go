package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// spanKind names a span recorded around a public call or hook.
type spanKind uint8

const (
	spanOp         spanKind = iota // one commit, as the harness's loop sees it
	spanStatement                  // core.Engine.UpdateByPK
	spanAction                     // the registered action, inline
	spanBegin                      // core.Engine.BeginBatch
	spanTxApply                    // the reldb.Tx mutations of a batch
	spanPrepare                    // core.BatchHandle.Prepare
	spanCommit                     // core.BatchHandle.Commit
	spanRouted                     // a single-shard statement on shard.Engine
	spanPrepareAll                 // distributed tx: call start to last per-shard prepare check
	spanCommitAll                  // distributed tx: last prepare check to return
	spanSink                       // outbox sink delivery, after the commit, on a dispatch worker
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "core.statement", "core.action", "core.begin", "reldb.tx_apply",
	"core.prepare", "core.commit", "shard.routed", "shard.prepare_all",
	"shard.commit_all", "outbox.sink",
}

// span is one recorded interval. Spans of an op are contiguous in
// tracer.spans, starting with the op's root.
type span struct {
	kind       spanKind
	parent     int32 // index of the parent span, -1 for an op root
	op         int32
	start, end int64
	// eval is the engine's evaluation time (GroupStats EvalNS delta)
	// inside a statement span, nested inline actions included.
	eval int64
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	spans []span
	stack []int32
	op    int32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<18), op: -1} }

// begin opens an op's root span.
func (t *tracer) begin(start int64) int32 {
	if t == nil {
		return -1
	}
	t.op++
	t.stack = t.stack[:0]
	return t.push(spanOp, start)
}

func (t *tracer) end(i int32, at int64) {
	if t == nil {
		return
	}
	t.spans[i].end = at
	t.stack = t.stack[:0]
}

func (t *tracer) push(k spanKind, start int64) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, op: t.op, start: start})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

// open starts a child of the innermost open span at clock reading at.
func (t *tracer) open(k spanKind, at int64) int32 {
	if t == nil {
		return -1
	}
	return t.push(k, at)
}

// close ends the innermost open span, which must be i.
func (t *tracer) close(i int32, at int64) {
	if t == nil {
		return
	}
	t.spans[i].end = at
	t.stack = t.stack[:len(t.stack)-1]
}

// spanAt records a finished child of the innermost open span.
func (t *tracer) spanAt(k spanKind, start, end int64) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, op: t.op, start: start, end: end})
}

func (t *tracer) setEval(i int32, ns int64) {
	if t != nil {
		t.spans[i].eval = ns
	}
}

// traceSummary is the traced window's attribution.
type traceSummary struct {
	metrics map[string]metric
	// self[i] is span i's self time: its duration minus the part its
	// children cover. Per op, the self times sum to the op's wall time;
	// the root's self time is the unattributed remainder.
	self  []int64
	sinks []async
	worst int64 // largest per-op reconciliation error, ns
}

// summarize computes self times, checks that every op reconciles, and
// aggregates per-layer self time per commit and as a share of commit
// wall time.
func (t *tracer) summarize(r rig, w window) (traceSummary, error) {
	s := traceSummary{metrics: map[string]metric{}, self: make([]int64, len(t.spans))}
	children := make([][]int32, len(t.spans))
	for i, sp := range t.spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], int32(i))
		}
	}
	var total [numSpanKinds]int64
	var wall, stmtEval, stmtNonEval int64
	var opSelf int64
	opRoot := -1
	flush := func() {
		if opRoot >= 0 {
			d := t.spans[opRoot].end - t.spans[opRoot].start
			if e := abs(d - opSelf); e > s.worst {
				s.worst = e
			}
		}
	}
	for i, sp := range t.spans {
		if sp.kind == spanOp {
			flush()
			opRoot, opSelf = i, 0
			wall += sp.end - sp.start
		}
		self := (sp.end - sp.start) - covered(t.spans, sp, children[i])
		s.self[i] = self
		opSelf += self
		total[sp.kind] += self
		if sp.kind == spanStatement {
			// Inline actions run inside the engine's evaluation window.
			ev := sp.eval
			for _, c := range children[i] {
				if t.spans[c].kind == spanAction {
					ev -= t.spans[c].end - t.spans[c].start
				}
			}
			stmtEval += ev
			stmtNonEval += self - ev
		}
	}
	flush()

	n := float64(w.commits)
	put := func(name string, ns int64) {
		s.metrics[name+"_us"] = metric{float64(ns) / 1e3 / n, "us"}
		frac := 0.0
		if wall > 0 {
			frac = float64(ns) / float64(wall)
		}
		s.metrics[name+"_frac"] = metric{frac, "ratio"}
	}
	for k := spanStatement; k < spanSink; k++ {
		put(spanNames[k], total[k])
	}
	put("trace.unattributed", total[spanOp])
	put("xqgm.stmt_eval", stmtEval)
	put("core.non_eval", stmtNonEval)

	if fr, ok := r.(*fleetRig); ok {
		fr.sink.mu.Lock()
		s.sinks, fr.sink.spans = fr.sink.spans, nil
		fr.sink.mu.Unlock()
	}
	var sinkNS int64
	for _, a := range s.sinks {
		sinkNS += a.end - a.start
	}
	put(spanNames[spanSink], sinkNS)
	s.metrics["trace.reconcile_error_ns"] = metric{float64(s.worst), "ns"}
	if s.worst != 0 {
		return s, fmt.Errorf("spans do not reconcile with op wall time (worst op off by %d ns)", s.worst)
	}
	return s, nil
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var tot, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				tot += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		tot += curB - curA
	}
	return tot
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// spanOut is one span in the dump.
type spanOut struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Eval   int64  `json:"eval_ns,omitempty"`
}

// opOut is one op's line in the dump: its spans and the reconciliation
// wall = attributed + unattributed. Sink spans follow the commit on
// dispatch workers, so they are listed apart and not part of the sum.
type opOut struct {
	Op           int32     `json:"op"`
	Wall         int64     `json:"wall_ns"`
	Attributed   int64     `json:"attributed_ns"`
	Unattributed int64     `json:"unattributed_ns"`
	Spans        []spanOut `json:"spans"`
	Follows      []spanOut `json:"follows,omitempty"`
}

// dump writes the spans as JSON lines: a header with the run's
// environment and summary, then one line per op.
func (t *tracer) dump(path string, env map[string]any, s traceSummary) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env, "summary": s.metrics}); err != nil {
		f.Close()
		return err
	}
	follows := map[int][]spanOut{}
	for _, a := range s.sinks {
		if op := a.op; op >= 0 {
			follows[op] = append(follows[op], spanOut{ID: -1, Name: spanNames[spanSink], Parent: 0, Start: a.start, End: a.end, Self: a.end - a.start})
		}
	}
	var cur *opOut
	write := func() error {
		if cur == nil {
			return nil
		}
		cur.Follows = follows[int(cur.Op)]
		return enc.Encode(cur)
	}
	base := 0
	for i, sp := range t.spans {
		if sp.kind == spanOp {
			if err := write(); err != nil {
				f.Close()
				return err
			}
			base = i
			cur = &opOut{Op: sp.op, Wall: sp.end - sp.start, Unattributed: s.self[i]}
		} else {
			cur.Attributed += s.self[i]
		}
		parent := -1
		if sp.parent >= 0 {
			parent = int(sp.parent) - base
		}
		cur.Spans = append(cur.Spans, spanOut{ID: i - base, Name: spanNames[sp.kind], Parent: parent,
			Start: sp.start, End: sp.end, Self: s.self[i], Eval: sp.eval})
	}
	if err := write(); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
