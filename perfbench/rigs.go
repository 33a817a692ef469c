package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"quark/internal/core"
	"quark/internal/dispatch"
	"quark/internal/outbox"
	"quark/internal/reldb"
	"quark/internal/shard"
	"quark/internal/wire"
	"quark/internal/workload"
	"quark/internal/xdm"
)

// rig is one built workload: an engine plus the closed-loop operation
// stream driving it and the checks on what it delivers.
type rig interface {
	// op runs the next commit. An error is a failed operation; a wrong
	// delivery count is a violation. tr, when non-nil, records spans.
	op(tr *tracer) (done, error)
	// beginWindow and endWindow bracket a timed window of length d;
	// endWindow returns the window's action-lag samples in ns, from commit
	// start and from commit return to action receipt (asynchronous
	// delivery drains first), and releases what the window held.
	beginWindow(d time.Duration)
	endWindow() (lag, postCommit []int64)
	// counts snapshots the engine's public counters.
	counts() counts
	// finish drains delivery and runs the end-of-run correctness checks.
	finish() failures
	close()
}

// done is one finished op: the commit call's boundaries on the harness
// clock, and whether its deliveries were wrong.
type done struct {
	start, end int64
	violation  bool
}

// buildFunc builds a workload's rig and times its set-up steps.
type buildFunc func(seed int64) (rig, setupTimes, error)

var workloads = map[string]buildFunc{
	"paper-grouped": func(seed int64) (rig, setupTimes, error) {
		return buildCore(seed, core.ModeGrouped, false)
	},
	"bulk-agg": func(seed int64) (rig, setupTimes, error) {
		return buildCore(seed, core.ModeGroupedAgg, true)
	},
	"durable-fleet": buildFleet,
}

// setupBuilds is how many times set-up runs per run: setup_s is the
// median, and the last build is the one measured.
const setupBuilds = 7

// setupTimes are one build's step timings in seconds.
type setupTimes struct {
	total, load, view, register, flush, outbox float64
}

// buildRepeated builds the workload setupBuilds times, each from a
// collected heap, and keeps the last build. It reports the median of
// every step.
func buildRepeated(build buildFunc, seed int64) (rig, setupTimes, error) {
	var all []setupTimes
	var r rig
	for i := 0; i < setupBuilds; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		b, st, err := build(seed)
		if err != nil {
			return nil, setupTimes{}, err
		}
		r = b
		all = append(all, st)
	}
	fmt.Fprint(os.Stderr, "set-up seconds per build:")
	for _, st := range all {
		fmt.Fprintf(os.Stderr, " %.4f", st.total)
	}
	fmt.Fprintln(os.Stderr)
	pick := func(f func(setupTimes) float64) float64 {
		v := make([]float64, len(all))
		for i, s := range all {
			v[i] = f(s)
		}
		return medianF(v)
	}
	return r, setupTimes{
		total:    pick(func(s setupTimes) float64 { return s.total }),
		load:     pick(func(s setupTimes) float64 { return s.load }),
		view:     pick(func(s setupTimes) float64 { return s.view }),
		register: pick(func(s setupTimes) float64 { return s.register }),
		flush:    pick(func(s setupTimes) float64 { return s.flush }),
		outbox:   pick(func(s setupTimes) float64 { return s.outbox }),
	}, nil
}

// stepTimer accumulates the seconds since its last lap.
type stepTimer struct{ last time.Time }

func (t *stepTimer) lap() float64 {
	at := time.Now()
	d := at.Sub(t.last).Seconds()
	t.last = at
	return d
}

// genRows lays out the Table 2 hierarchy for depth 2 (the key-space
// contract of package workload): top ids 0..numTop-1 named "Item %06d",
// leaf i under top i/fanout, payloads drawn from rng in 50..249.
func genRows(p workload.Params, rng *rand.Rand) (top, leaves []reldb.Row, names []string) {
	numTop := p.NumTop()
	names = make([]string, numTop)
	top = make([]reldb.Row, numTop)
	for i := range top {
		names[i] = fmt.Sprintf("Item %06d", i)
		top[i] = reldb.Row{xdm.Int(int64(i)), xdm.Str(names[i])}
	}
	leaves = make([]reldb.Row, numTop*p.Fanout)
	for i := range leaves {
		leaves[i] = reldb.Row{xdm.Int(int64(i)), xdm.Int(int64(i / p.Fanout)), xdm.Float(float64(50 + rng.Intn(200)))}
	}
	return top, leaves, names
}

// triggerSrc is the structurally similar UPDATE trigger on top-level
// element name, the population of the paper's Section 6.
func triggerSrc(i int, name string) string {
	return fmt.Sprintf(`CREATE TRIGGER trig%d AFTER UPDATE ON view('doc')/e0 WHERE NEW_NODE/@name = '%s' DO notify(NEW_NODE)`, i, name)
}

// coreRig drives one core.Engine at Table 2 scale: paper-grouped updates
// one leaf under top element 0 per commit (Fig 17); bulk-agg updates 256
// consecutive leaves (four top elements) in one Engine.Batch.
type coreRig struct {
	p        workload.Params
	e        *core.Engine
	bulk     bool
	rng      *rand.Rand
	payload  float64
	watchers []int // triggers watching each top element

	acts    int     // action invocations so far (inline, writer goroutine)
	opStart int64   // current commit's start, for lag
	tr      *tracer // current op's tracer, for action spans
	lags    []int64
}

// bulkRows is the rows one bulk-agg commit updates: four top elements'
// leaves at Table 2's fanout of 64.
const bulkRows = 256

func buildCore(seed int64, mode core.Mode, bulk bool) (rig, setupTimes, error) {
	p := workload.Default()
	rng := rand.New(rand.NewSource(seed))
	top, leaves, names := genRows(p, rng)
	srcs := make([]string, p.NumTriggers)
	watchers := make([]int, len(names))
	for i := range srcs {
		// Trigger 0 watches top element 0, the one paper-grouped updates
		// (one satisfied trigger per update); the rest spread over the
		// other top elements.
		t := 0
		if i > 0 {
			t = 1 + i%(len(names)-1)
		}
		watchers[t]++
		srcs[i] = triggerSrc(i, names[t])
	}
	r := &coreRig{p: p, bulk: bulk, rng: rng, payload: 1000, watchers: watchers}

	var st setupTimes
	t := stepTimer{last: time.Now()}
	start := t.last
	db, err := reldb.Open(workload.BuildSchema(p))
	if err != nil {
		return nil, st, err
	}
	if err := db.Insert(p.TableName(0), top...); err != nil {
		return nil, st, err
	}
	if err := db.Insert(p.TableName(1), leaves...); err != nil {
		return nil, st, err
	}
	st.load = t.lap()
	e := core.NewEngine(db, mode)
	e.RegisterAction("notify", r.action)
	if _, err := e.CreateView("doc", workload.ViewSource(p)); err != nil {
		return nil, st, err
	}
	st.view = t.lap()
	for _, src := range srcs {
		if err := e.CreateTrigger(src); err != nil {
			return nil, st, err
		}
	}
	st.register = t.lap()
	if err := e.Flush(); err != nil {
		return nil, st, err
	}
	st.flush = t.lap()
	st.total = time.Since(start).Seconds()
	r.e = e
	return r, st, nil
}

// action is the counting sink: it runs inline inside the commit.
func (r *coreRig) action(core.Invocation) error {
	at := now()
	r.acts++
	if r.lags != nil {
		r.lags = append(r.lags, at-r.opStart)
	}
	if r.tr != nil {
		r.tr.spanAt(spanAction, at, now())
	}
	return nil
}

func (r *coreRig) nextPayload() xdm.Value {
	r.payload++
	return xdm.Float(r.payload)
}

func (r *coreRig) op(tr *tracer) (done, error) {
	r.tr = tr
	defer func() { r.tr = nil }()
	before := r.acts
	want := r.watchers[0]
	var d done
	var err error
	if r.bulk {
		want, d, err = r.bulkOp(tr)
	} else {
		d, err = r.stmtOp(tr)
	}
	d.violation = err == nil && r.acts-before != want
	return d, err
}

// stmtOp is the Fig 17 operation: one UpdateByPK of a leaf under top
// element 0, with a payload no earlier op wrote.
func (r *coreRig) stmtOp(tr *tracer) (done, error) {
	leaf := []xdm.Value{xdm.Int(int64(r.rng.Intn(r.p.Fanout)))}
	v := r.nextPayload()
	var evalBefore int64
	if tr != nil {
		evalBefore = evalNS(r.e)
	}
	r.opStart = now()
	s := tr.open(spanStatement, r.opStart)
	changed, err := r.e.UpdateByPK(r.p.TableName(1), leaf, func(row reldb.Row) reldb.Row {
		row[len(row)-1] = v
		return row
	})
	d := done{start: r.opStart, end: now()}
	tr.close(s, d.end)
	if tr != nil {
		tr.setEval(s, evalNS(r.e)-evalBefore)
	}
	if err == nil && !changed {
		err = fmt.Errorf("update of leaf %v changed nothing", leaf[0])
	}
	return d, err
}

// bulkOp updates bulkRows consecutive leaves starting at a top element
// boundary in one batch and returns the number of activations the
// commit must deliver. Traced, it drives BeginBatch/Tx/Prepare/Commit,
// Engine.Batch's own path, so each phase gets a span.
func (r *coreRig) bulkOp(tr *tracer) (int, done, error) {
	tops := bulkRows / r.p.Fanout
	first := r.rng.Intn(r.p.NumTop()/tops) * tops
	want := 0
	for t := first; t < first+tops; t++ {
		want += r.watchers[t]
	}
	leaf0 := first * r.p.Fanout
	apply := func(tx *reldb.Tx) error {
		for i := 0; i < bulkRows; i++ {
			v := r.nextPayload()
			changed, err := tx.UpdateByPK(r.p.TableName(1), []xdm.Value{xdm.Int(int64(leaf0 + i))}, func(row reldb.Row) reldb.Row {
				row[len(row)-1] = v
				return row
			})
			if err != nil {
				return err
			}
			if !changed {
				return fmt.Errorf("update of leaf %d changed nothing", leaf0+i)
			}
		}
		return nil
	}
	r.opStart = now()
	if tr == nil {
		err := r.e.Batch(apply)
		return want, done{start: r.opStart, end: now()}, err
	}
	d := done{start: r.opStart}
	err := r.tracedBatch(tr, apply)
	d.end = now()
	return want, d, err
}

func (r *coreRig) tracedBatch(tr *tracer, apply func(*reldb.Tx) error) error {
	s := tr.open(spanBegin, r.opStart)
	h, err := r.e.BeginBatch()
	tr.close(s, now())
	if err != nil {
		return err
	}
	s = tr.open(spanTxApply, now())
	err = apply(h.Tx())
	tr.close(s, now())
	if err != nil {
		_ = h.Rollback()
		return err
	}
	s = tr.open(spanPrepare, now())
	err = h.Prepare()
	tr.close(s, now())
	if err != nil {
		_ = h.Rollback()
		return err
	}
	s = tr.open(spanCommit, now())
	err = h.Commit()
	tr.close(s, now())
	return err
}

func (r *coreRig) beginWindow(time.Duration) { r.lags = make([]int64, 0, 1<<16) }

func (r *coreRig) endWindow() ([]int64, []int64) {
	l := r.lags
	r.lags = nil
	return l, nil
}

func (r *coreRig) counts() counts { return engineCounts(r.e.Stats()) }

func (r *coreRig) finish() failures { return failures{} }

func (r *coreRig) close() {}

// evalNS sums the engine's per-group evaluation time.
func evalNS(e *core.Engine) int64 {
	var n int64
	for _, g := range e.GroupStats() {
		n += g.EvalNS
	}
	return n
}

// fleetRig drives a 4-shard engine with asynchronous, durable delivery
// from workload.GenStream's mix of single-row statements and multi-root
// transactions.
type fleetRig struct {
	p    workload.Params
	e    *shard.Engine
	lg   *outbox.Log
	dir  string
	seed int64
	ops  []workload.Op // the stream from op used on
	used int           // ops run and released
	next int           // index in ops of the next op
	t0   int64         // clock at the first op, for the op rate

	prepared  int        // prepare-check callbacks in the current op
	lastPrep  int64      // clock at the latest one
	distOps   int64      // ops that ran as distributed transactions
	opRanges  []seqRange // ops of the current window
	recording bool
	// While recording, each op's sequence range ends at the log's NextSeq
	// after the call: with one writer, records are appended inside the
	// commit and in op order. The read is one mutex acquisition and no
	// allocation, outside the timed call.
	nextSeq    uint64
	misaligned bool // records were appended after the window's last op

	sink sinkState
}

// seqRange is the outbox sequence range [lo, hi) one op appended.
type seqRange struct {
	lo, hi     uint64
	start, end int64
}

// sinkState is the durable sink: it receives every record once, in
// sequence order per trigger, and notes when.
type sinkState struct {
	mu                    sync.Mutex
	seen                  []uint64 // bitset of received sequence numbers
	count, dups, reorders int64
	lastSeq               map[string]uint64
	// While a window records, at[seq-from] is the receipt clock of record
	// seq (0 = not yet); outside windows at is nil, so the live heap read
	// after a window does not hold it.
	from    uint64
	at      []int64
	tracing bool
	spans   []async // sink spans of the traced window's records
}

type async struct {
	seq        uint64
	op         int // index of the window op that appended the record, -1 if none
	start, end int64
}

// Fleet shape: Table 2's depth 2 at 16K leaves and fanout 16, with four
// triggers per top element.
const (
	fleetShards     = 4
	fleetLeaves     = 16 * 1024
	fleetFanout     = 16
	fleetPerTop     = 4
	fleetWorkers    = 2
	fleetQueue      = 1024
	fleetCompactLag = 4096
	// fleetFirstStream is the length of the stream generated for warm-up;
	// a writer that runs out regenerates a longer one (see nextOp).
	fleetFirstStream = 4096
)

var buildSeq int

func buildFleet(seed int64) (_ rig, st setupTimes, err error) {
	p := workload.Params{Depth: 2, LeafTuples: fleetLeaves, Fanout: fleetFanout}
	rng := rand.New(rand.NewSource(seed))
	top, leaves, names := genRows(p, rng)
	var srcs []string
	for t, n := range names {
		for k := 0; k < fleetPerTop; k++ {
			srcs = append(srcs, triggerSrc(t*fleetPerTop+k, n))
		}
	}
	buildSeq++
	dir, err := filepath.Abs(filepath.Join(workDir, "outbox", fmt.Sprintf("%d-%d", os.Getpid(), buildSeq)))
	if err != nil {
		return nil, setupTimes{}, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, setupTimes{}, err
	}
	r := &fleetRig{p: p, dir: dir, seed: seed}
	r.sink.lastSeq = map[string]uint64{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	t := stepTimer{last: time.Now()}
	start := t.last
	e, err := shard.New(workload.BuildSchema(p), shard.Config{Shards: fleetShards, Mode: core.ModeGrouped})
	if err != nil {
		return nil, st, err
	}
	r.e = e
	if err := e.Insert(p.TableName(0), top...); err != nil {
		return nil, st, err
	}
	if err := e.Insert(p.TableName(1), leaves...); err != nil {
		return nil, st, err
	}
	st.load = t.lap()
	e.RegisterAction("notify", func(core.Invocation) error { return nil })
	if err := e.CreateView("doc", workload.ViewSource(p)); err != nil {
		return nil, st, err
	}
	st.view = t.lap()
	for _, src := range srcs {
		if err := e.CreateTrigger(src); err != nil {
			return nil, st, err
		}
	}
	st.register = t.lap()
	if err := e.Flush(); err != nil {
		return nil, st, err
	}
	st.flush = t.lap()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	// No fsync: on a shared virtual disk its latency is the device's and
	// drifts from run to run (see README.md, "Flush policy").
	lg, err := outbox.Open(dir, outbox.Options{AutoCompactLag: fleetCompactLag})
	if err != nil {
		return nil, st, err
	}
	r.lg = lg
	if err := e.EnableAsyncDispatch(dispatch.Config{Workers: fleetWorkers, QueueCap: fleetQueue, Policy: dispatch.Block}); err != nil {
		return nil, st, err
	}
	if err := e.EnableOutbox(lg, outbox.SinkFunc(r.deliver)); err != nil {
		return nil, st, err
	}
	st.outbox = t.lap()
	st.total = time.Since(start).Seconds()
	for i := 0; i < e.NumShards(); i++ {
		e.Shard(i).SetPrepareCheck(r.prepareCheck)
	}
	return r, st, nil
}

// prepareCheck runs at the end of each shard's prepare phase of a
// distributed transaction; the last call of an op splits it into
// prepare-all and commit-all.
func (r *fleetRig) prepareCheck([]core.Invocation) error {
	r.prepared++
	r.lastPrep = now()
	return nil
}

func (r *fleetRig) deliver(rec *wire.Record) error {
	at := now()
	s := &r.sink
	s.mu.Lock()
	w, bit := rec.Seq/64, uint64(1)<<(rec.Seq%64)
	for uint64(len(s.seen)) <= w {
		s.seen = append(s.seen, 0)
	}
	if s.seen[w]&bit != 0 {
		s.dups++
	}
	s.seen[w] |= bit
	if last, ok := s.lastSeq[rec.Trigger]; ok && rec.Seq <= last {
		s.reorders++
	}
	s.lastSeq[rec.Trigger] = rec.Seq
	s.count++
	if s.at != nil && rec.Seq >= s.from {
		i := rec.Seq - s.from
		for uint64(len(s.at)) <= i {
			s.at = append(s.at, 0)
		}
		s.at[i] = at
		if s.tracing {
			s.spans = append(s.spans, async{seq: rec.Seq, start: at, end: now()})
		}
	}
	s.mu.Unlock()
	return nil
}

func (r *fleetRig) op(tr *tracer) (done, error) {
	o, err := r.nextOp()
	if err != nil {
		return done{}, err
	}
	r.prepared = 0
	start := now()
	err = workload.ApplyOp(workload.ShardApplier{E: r.e}, r.p, o)
	end := now()
	if r.prepared > 0 {
		r.distOps++
		tr.spanAt(spanPrepareAll, start, r.lastPrep)
		tr.spanAt(spanCommitAll, r.lastPrep, end)
	} else {
		tr.spanAt(spanRouted, start, end)
	}
	if r.recording {
		hi := r.lg.NextSeq()
		r.opRanges = append(r.opRanges, seqRange{lo: r.nextSeq, hi: hi, start: start, end: end})
		r.nextSeq = hi
	}
	return done{start: start, end: end}, err
}

// nextOp returns the next op of the seeded stream. A stream that runs
// out is regenerated at twice the length.
func (r *fleetRig) nextOp() (workload.Op, error) {
	if r.used+r.next == 0 {
		r.t0 = now()
	}
	if r.next >= len(r.ops) {
		total := r.used + r.next
		if err := r.genStream(total, max(total, fleetFirstStream)); err != nil {
			return workload.Op{}, err
		}
	}
	o := r.ops[r.next]
	r.next++
	return o, nil
}

// genStream keeps the n ops of the seeded stream that follow the first
// from. GenStream is prefix-stable (a longer stream with the same seed
// starts with the shorter one), so the run resumes where it stopped.
func (r *fleetRig) genStream(from, n int) error {
	ops, err := workload.GenStream(r.p, workload.DefaultStream(from+n), r.seed)
	if err != nil {
		return err
	}
	r.ops, r.used, r.next = append([]workload.Op(nil), ops[from:]...), from, 0
	return nil
}

// beginWindow generates, before the timed loop, the stream the window
// should need: the op rate so far over d, with half again in reserve.
func (r *fleetRig) beginWindow(d time.Duration) {
	total := r.used + r.next
	n := fleetFirstStream
	if total > 0 {
		rate := float64(total) / (float64(now()-r.t0) / 1e9)
		n += int(1.5 * rate * d.Seconds())
	}
	if err := r.genStream(total, n); err != nil {
		// nextOp regenerates and reports the error as a failed op.
		r.ops, r.used, r.next = nil, total, 0
	}
	r.nextSeq = r.lg.NextSeq()
	r.recording = true
	r.sink.mu.Lock()
	r.sink.from, r.sink.at = r.nextSeq, make([]int64, 0, 1<<16)
	r.sink.mu.Unlock()
}

// setTracing switches sink span recording for window records on or off.
func (r *fleetRig) setTracing(on bool) {
	r.sink.mu.Lock()
	r.sink.tracing = on
	r.sink.mu.Unlock()
}

func (r *fleetRig) endWindow() ([]int64, []int64) {
	r.recording = false
	// Drop the unused stream too, so the live heap read after the window
	// holds the engine and not the input.
	r.ops, r.used, r.next = nil, r.used+r.next, 0
	r.e.Drain()
	if r.nextSeq != r.lg.NextSeq() {
		r.misaligned = true
	}
	s := &r.sink
	s.mu.Lock()
	defer s.mu.Unlock()
	var lag, post []int64
	for _, o := range r.opRanges {
		for q := o.lo; q < o.hi; q++ {
			if i := q - s.from; i < uint64(len(s.at)) && s.at[i] != 0 {
				lag = append(lag, s.at[i]-o.start)
				post = append(post, s.at[i]-o.end)
			}
		}
	}
	for i := range s.spans {
		s.spans[i].op = r.opOfSeq(s.spans[i].seq)
	}
	s.at, r.opRanges = nil, nil
	return lag, post
}

// opOfSeq maps a traced sink record back to the window op that appended it.
func (r *fleetRig) opOfSeq(seq uint64) int {
	i := sort.Search(len(r.opRanges), func(i int) bool { return r.opRanges[i].hi > seq })
	if i < len(r.opRanges) && r.opRanges[i].lo <= seq {
		return i
	}
	return -1
}

func (r *fleetRig) counts() counts {
	st := r.e.Stats()
	var c counts
	for _, s := range st.PerShard {
		c.add(engineCounts(s))
	}
	c.maxDepth = st.Dispatch.MaxDepth
	c.appended = st.OutboxLog.Appended
	c.distributed = r.distOps
	return c
}

func (r *fleetRig) finish() failures {
	var f failures
	r.e.Drain()
	st := r.e.Stats()
	ls := r.lg.Stats()
	r.sink.mu.Lock()
	count, dups, reorders := r.sink.count, r.sink.dups, r.sink.reorders
	missing := int64(0)
	for q := uint64(1); q < ls.NextSeq; q++ {
		if w := q / 64; w >= uint64(len(r.sink.seen)) || r.sink.seen[w]&(1<<(q%64)) == 0 {
			missing++
		}
	}
	r.sink.mu.Unlock()
	f.check(count == ls.Appended, "sink received %d records, outbox appended %d", count, ls.Appended)
	f.check(dups == 0, "%d records delivered more than once", dups)
	f.check(missing == 0, "%d appended records never reached the sink", missing)
	f.check(reorders == 0, "%d records arrived out of sequence order within their trigger", reorders)
	f.check(st.Dispatch.Dropped == 0, "dispatcher dropped %d deliveries", st.Dispatch.Dropped)
	f.check(st.Dispatch.ActionErrors == 0, "dispatcher saw %d action errors", st.Dispatch.ActionErrors)
	f.check(!r.misaligned, "records were appended after their commit returned")
	f.check(ls.Acked == ls.NextSeq-1, "outbox acked through %d of %d records", ls.Acked, ls.NextSeq-1)
	if err := r.e.VerifyDirectory(); err != nil {
		f.check(false, "routing directory: %v", err)
	}
	return f
}

// diskBytesPerRecord is the outbox segments' footprint over the records
// they still hold (auto-compaction removes acknowledged segments).
func (r *fleetRig) diskBytesPerRecord() float64 {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return 0
	}
	oldest := uint64(0)
	for _, e := range ents {
		n := e.Name()
		if !strings.HasPrefix(n, "seg-") || !strings.HasSuffix(n, ".log") {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(n, "seg-"), ".log"), "%d", &first); err != nil {
			continue
		}
		if oldest == 0 || first < oldest {
			oldest = first
		}
	}
	ls := r.lg.Stats()
	if oldest == 0 || ls.NextSeq <= oldest {
		return 0
	}
	return float64(ls.DiskBytes) / float64(ls.NextSeq-oldest)
}

func (r *fleetRig) close() {
	if r.e != nil {
		_ = r.e.Close()
	}
	if r.lg != nil {
		_ = r.lg.Close()
	}
	_ = os.RemoveAll(r.dir)
}

// engineCounts extracts one core engine's counters.
func engineCounts(s core.Stats) counts {
	c := counts{
		rowsRead:     s.DB.RowsRead,
		indexLookups: s.DB.IndexLookups,
		fullScans:    s.DB.FullScans,
		fires:        s.Fires,
		actions:      s.Actions,
	}
	for _, g := range s.PerGroup {
		c.evalNS += g.EvalNS
		c.deltaRows += g.DeltaRows
		c.groupFires += g.Fires
	}
	return c
}
