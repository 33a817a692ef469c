package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var clockBase = time.Now()

// now is the harness clock: monotonic ns since start-up.
func now() int64 { return int64(time.Since(clockBase)) }

// Warm-up runs until the heap has been through warmGCs collections since
// set-up and at least warmMin has passed, so the timed window starts at
// the GC cadence it will keep; warmMax caps it for workloads that
// allocate little.
const (
	warmGCs = 8
	warmMin = 2 * time.Second
	warmMax = 10 * time.Second
)

// counts are engine counters read from public Stats.
type counts struct {
	rowsRead, indexLookups, fullScans int64
	fires, actions                    int64
	evalNS, deltaRows, groupFires     int64
	appended, maxDepth, distributed   int64
}

func (c *counts) add(o counts) {
	c.rowsRead += o.rowsRead
	c.indexLookups += o.indexLookups
	c.fullScans += o.fullScans
	c.fires += o.fires
	c.actions += o.actions
	c.evalNS += o.evalNS
	c.deltaRows += o.deltaRows
	c.groupFires += o.groupFires
	c.appended += o.appended
	c.distributed += o.distributed
}

func (c counts) sub(o counts) counts {
	return counts{
		rowsRead: c.rowsRead - o.rowsRead, indexLookups: c.indexLookups - o.indexLookups,
		fullScans: c.fullScans - o.fullScans, fires: c.fires - o.fires, actions: c.actions - o.actions,
		evalNS: c.evalNS - o.evalNS, deltaRows: c.deltaRows - o.deltaRows, groupFires: c.groupFires - o.groupFires,
		appended: c.appended - o.appended, maxDepth: c.maxDepth, distributed: c.distributed - o.distributed,
	}
}

// failures counts failed operations and correctness violations.
type failures struct {
	ops, violations int64
	msgs            []string
}

func (f *failures) add(o failures) {
	f.ops += o.ops
	f.violations += o.violations
	f.msgs = append(f.msgs, o.msgs...)
}

// maxMsgs caps the failure messages kept; the counts stay exact.
const maxMsgs = 10

func (f *failures) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	f.violations++
	if len(f.msgs) < maxMsgs {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f failures) ok() bool { return f.ops == 0 && f.violations == 0 }

func (f failures) String() string {
	return fmt.Sprintf("%d failed ops, %d violations: %s", f.ops, f.violations, strings.Join(f.msgs, "; "))
}

// host is a process-wide resource snapshot.
type host struct {
	cpu          float64 // user+sys seconds
	mallocs      uint64
	allocBytes   uint64
	numGC        uint32
	pauseNS      uint64
	gcCPU, total float64 // runtime/metrics CPU-seconds estimates
	wchar, syscw int64   // bytes written and write syscalls (/proc/self/io)
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHost() host {
	var h host
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.cpu = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.mallocs, h.allocBytes, h.numGC, h.pauseNS = ms.Mallocs, ms.TotalAlloc, ms.NumGC, ms.PauseTotalNs
	metrics.Read(cpuSamples)
	h.gcCPU, h.total = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	h.wchar, h.syscw = readWrites()
	return h
}

// readWrites returns the bytes this process passed to write syscalls and
// the number of those syscalls.
func readWrites() (wchar, syscw int64) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(strings.TrimSpace(string(v)), 10, 64)
		switch string(k) {
		case "wchar":
			wchar = n
		case "syscw":
			syscw = n
		}
	}
	return wchar, syscw
}

// window is one timed stretch of closed-loop commits.
type window struct {
	commits int64
	elapsed float64 // seconds from the first op's start to the last op's end
	// The window's exact samples in ns: commit latency, action lag from
	// commit start, and lag from commit return.
	lat, lag, post []int64
	wall           int64 // sum of commit latencies
	h0, h1         host
	c              counts
	diskPerRec     float64
	fails          failures
}

// warmUp runs ops until the GC cadence is steady.
func warmUp(r rig) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	start := time.Now()
	for i := 0; ; i++ {
		if _, err := r.op(nil); err != nil {
			return err
		}
		if i%16 != 0 {
			continue
		}
		el := time.Since(start)
		if el >= warmMax {
			return nil
		}
		if el >= warmMin {
			runtime.ReadMemStats(&ms)
			if ms.NumGC-gc0 >= warmGCs {
				return nil
			}
		}
	}
}

// measure runs the closed loop for d and collects the window's samples,
// resource deltas and counters; tr, when non-nil, records spans.
func measure(r rig, d time.Duration, tr *tracer) (window, error) {
	var w window
	lat := make([]int64, 0, 1<<16)
	if fr, ok := r.(*fleetRig); ok && tr != nil {
		fr.setTracing(true)
		defer fr.setTracing(false)
	}
	c0 := r.counts()
	r.beginWindow(d)
	w.h0 = readHost()
	t0 := now()
	deadline := t0 + int64(d)
	last := t0
	for last < deadline {
		root := tr.begin(now())
		op, err := r.op(tr)
		last = now()
		tr.end(root, last)
		lat = append(lat, op.end-op.start)
		switch {
		case err != nil:
			w.fails.ops++
			if len(w.fails.msgs) < maxMsgs {
				w.fails.msgs = append(w.fails.msgs, err.Error())
			}
		case op.violation:
			w.fails.check(false, "commit %d delivered the wrong number of actions", w.commits)
		}
		w.commits++
	}
	w.h1 = readHost()
	w.elapsed = float64(last-t0) / 1e9
	lag, post := r.endWindow()
	w.lat, w.lag, w.post, w.wall = lat, lag, post, sum(lat)
	w.c = r.counts().sub(c0)
	if fr, ok := r.(*fleetRig); ok {
		w.diskPerRec = fr.diskBytesPerRecord()
	}
	if w.commits == 0 {
		return w, fmt.Errorf("no commit completed in the window")
	}
	return w, nil
}

// liveHeapMB is HeapAlloc after a collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank p-th percentile of xs (sorted in place).
func percentile(xs []int64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	return float64(xs[k])
}

// trimmedMean is the mean of the samples between the 10th and the 90th
// percentile (xs is sorted in place).
func trimmedMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	lo, hi := len(xs)/10, len(xs)-len(xs)/10
	return float64(sum(xs[lo:hi])) / float64(hi-lo)
}

func medianF(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// endToEnd fills the metrics a user of the engine sees, all but the live
// heap, which is read once the window's samples are dropped.
func endToEnd(m map[string]metric, st setupTimes, w window) {
	n := float64(w.commits)
	m["setup_s"] = metric{st.total, "s"}
	m["throughput_cps"] = metric{n / w.elapsed, "commits/s"}
	m["commit_tmean_us"] = metric{trimmedMean(w.lat) / 1e3, "us"}
	m["cpu_us_per_commit"] = metric{(w.h1.cpu - w.h0.cpu) * 1e6 / n, "us"}
	m["allocs_per_commit"] = metric{float64(w.h1.mallocs-w.h0.mallocs) / n, "count"}
	m["alloc_bytes_per_commit"] = metric{float64(w.h1.allocBytes-w.h0.allocBytes) / n, "B"}
	m["action_lag_tmean_us"] = metric{trimmedMean(w.lag) / 1e3, "us"}
}

// perLayer fills the per-layer metrics: set-up steps, latency tails,
// counters over the untraced window, and the traced window's self times.
func perLayer(m map[string]metric, st setupTimes, plain, traced window, ts traceSummary) {
	n := float64(plain.commits)
	c := plain.c
	per := func(x int64) float64 { return float64(x) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m["reldb.load_s"] = metric{st.load, "s"}
	m["compile.view_s"] = metric{st.view, "s"}
	m["trigger.register_s"] = metric{st.register, "s"}
	m["core.flush_s"] = metric{st.flush, "s"}
	m["outbox.open_s"] = metric{st.outbox, "s"}

	// The tails amplify host slowdowns, so they carry no bound (README.md).
	// They pool both halves, so that p99.5 has ten samples beyond it at
	// bulk-agg's rate.
	m["commit_p99.5_us"] = metric{percentile(append(plain.lat, traced.lat...), 99.5) / 1e3, "us"}
	m["action_lag_p95_us"] = metric{percentile(append(plain.lag, traced.lag...), 95) / 1e3, "us"}

	m["reldb.rows_read_per_commit"] = metric{per(c.rowsRead), "count"}
	m["reldb.index_lookups_per_commit"] = metric{per(c.indexLookups), "count"}
	m["reldb.full_scans_per_commit"] = metric{per(c.fullScans), "count"}
	m["core.fires_per_commit"] = metric{per(c.fires), "count"}
	m["core.actions_per_commit"] = metric{per(c.actions), "count"}
	m["xqgm.eval_us_per_commit"] = metric{per(c.evalNS) / 1e3, "us"}
	m["xqgm.eval_frac"] = metric{ratio(float64(c.evalNS), float64(plain.wall)), "ratio"}
	m["xqgm.delta_rows_per_fire"] = metric{ratio(float64(c.deltaRows), float64(c.groupFires)), "count"}

	h0, h1 := plain.h0, plain.h1
	m["runtime.gc_cycles_per_kcommit"] = metric{float64(h1.numGC-h0.numGC) * 1e3 / n, "count"}
	m["runtime.gc_cpu_frac"] = metric{ratio(h1.gcCPU-h0.gcCPU, h1.total-h0.total), "ratio"}
	m["runtime.gc_pause_us_per_commit"] = metric{float64(h1.pauseNS-h0.pauseNS) / 1e3 / n, "us"}

	m["outbox.records_per_commit"] = metric{per(c.appended), "count"}
	m["outbox.write_bytes_per_record"] = metric{ratio(float64(h1.wchar-h0.wchar), float64(c.appended)), "B"}
	m["outbox.write_calls_per_commit"] = metric{float64(h1.syscw-h0.syscw) / n, "count"}
	m["outbox.disk_bytes_per_record"] = metric{plain.diskPerRec, "B"}
	m["dispatch.max_depth"] = metric{float64(c.maxDepth), "count"}
	m["shard.distributed_frac"] = metric{per(c.distributed), "ratio"}

	for name, v := range ts.metrics {
		m[name] = v
	}
	m["dispatch.post_commit_lag_p50_us"] = metric{percentile(traced.post, 50) / 1e3, "us"}
	m["trace.overhead_frac"] = metric{1 - ratio(float64(traced.commits)/traced.elapsed, n/plain.elapsed), "ratio"}
}
