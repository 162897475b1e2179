package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets the pipeline up from nothing;
// setup_s is the median. Earlier set-ups are torn down, the last one is the
// pipeline the timed phase runs on.
const setupRepeats = 3

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Samples   int                `json:"samples"`
	TailQ     float64            `json:"tail_quantile"`
	LatencyMs map[string]float64 `json:"latency_ms"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// setUp builds the pipeline, pushes the preload through it, runs the
// untimed warm-up and collects, leaving everything as the first timed op
// will find it.
func setUp(w workload, g *gen, tr *tracer, refs *references) (*runCtx, error) {
	p, err := newPipeline(g, w.size, tr)
	if err != nil {
		return nil, err
	}
	if err := p.load(w.size.preloadRows, w.loadBatch); err != nil {
		p.close()
		return nil, err
	}
	rc := &runCtx{w: w, p: p, log: newOpLog(), refs: refs}
	w.run(rc, 0, w.warmOps)
	if rc.log.failed > 0 {
		p.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", rc.log.failed, rc.log.attempted, rc.log.errs)
	}
	rc.log = newOpLog()
	runtime.GC()
	return rc, nil
}

// cost is the process-wide resource use over a slice of time.
type cost struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
	gcs            uint32
	pauseNs        uint64
	gcCPU          float64 // seconds
}

func (c *cost) add(o cost) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.mallocs += o.mallocs
	c.gcs += o.gcs
	c.pauseNs += o.pauseNs
	c.gcCPU += o.gcCPU
}

func (u usage) since(b usage) cost {
	return cost{
		wall: u.wall.Sub(b.wall), cpu: u.cpu - b.cpu,
		alloc: u.alloc - b.alloc, mallocs: u.mallocs - b.mallocs,
		gcs: u.gcs - b.gcs, pauseNs: u.pauseNs - b.pauseNs, gcCPU: u.gcCPU - b.gcCPU,
	}
}

// phase is the ops logged over one or more timed slices and what the
// process spent meanwhile.
type phase struct {
	log *opLog
	cost
	// heapSum/heapSamples average the live heap (MB) over the slices.
	heapSum     float64
	heapSamples int
}

func (ph *phase) ops() float64 { return float64(len(ph.log.latMs)) }

func (ph *phase) cpuMsPerOp() float64 { return ms(ph.cpu) / ph.ops() }

// timed runs the workload for d, logging into ph.log, and adds the slice's
// cost to ph. Meanwhile it samples the live heap every 100 ms.
func timed(rc *runCtx, ph *phase, d time.Duration) {
	rc.log = ph.log
	ph.heapSum += float64(heapLive()) / (1 << 20) // a slice shorter than a tick still has a sample
	ph.heapSamples++
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				ph.heapSum += float64(heapLive()) / (1 << 20)
				ph.heapSamples++
			}
		}
	}()
	before := snapshotUsage()
	rc.w.run(rc, d, 0)
	ph.add(snapshotUsage().since(before))
	close(stop)
	<-sampled
}

// endToEnd derives the user-visible metrics from an untraced phase.
func endToEnd(ph *phase, setupS float64) map[string]float64 {
	lat := sortedCopy(ph.log.latMs)
	ops := ph.ops()
	return map[string]float64{
		"setup_s":         setupS,
		"ops_s":           ops / ph.wall.Seconds(),
		"op_p50_ms":       percentile(lat, 0.5),
		"cpu_ms_per_op":   ph.cpuMsPerOp(),
		"alloc_kb_per_op": float64(ph.alloc) / 1024 / ops,
		"allocs_per_op":   float64(ph.mallocs) / ops,
		"live_heap_mb":    ph.heapSum / float64(ph.heapSamples),
	}
}

// finish quiesces the pipeline, checks for lost rows and wrong answers and
// fills in the result's verdict.
func finish(res *result, rc *runCtx, log *opLog) {
	if err := rc.p.quiesce(); err != nil {
		log.fail(err)
	}
	for _, err := range verify(rc.p, rc.w.shapes) {
		log.fail(err)
	}
	res.Attempted, res.Failed = log.attempted, log.failed
	res.Correct = log.failed == 0 && log.attempted > 0
	res.Samples = len(log.latMs)
	lat := sortedCopy(log.latMs)
	res.LatencyMs = map[string]float64{}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 1} {
		res.LatencyMs[fmt.Sprintf("p%g", q*100)] = percentile(lat, q)
	}
	for _, e := range log.errs {
		res.Errors = append(res.Errors, e.Error())
	}
}

// runUntraced is the measured run: set up setupRepeats times, time the
// workload for d, then check everything.
func runUntraced(w workload, seed int64, d time.Duration) (*result, error) {
	g := newGen(seed)
	refs := preloadReferences(w, g)
	var rc *runCtx
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if rc != nil {
			rc.p.close()
			rc = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if rc, err = setUp(w, g, nil, refs); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { rc.p.close() }()

	ph := &phase{log: rc.log}
	timed(rc, ph, d)
	res := &result{Workload: w.name, Seed: seed, Seconds: d.Seconds(), TailQ: w.tailQ}
	finish(res, rc, ph.log)
	if res.Samples == 0 {
		return res, fmt.Errorf("no op succeeded: %v", res.Errors)
	}
	res.Metrics = endToEnd(ph, midMedian(setups))
	return res, nil
}

// tracedSlices is how many slices the traced run cuts d into, alternately
// with the tracer off and on.
const tracedSlices = 6

// runTraced is the attribution run. It sets up once with every wrapper
// installed and runs d as alternating slices with the tracer off and on:
// the on slices give the per-layer metrics, the off slices the cost to
// compare them with. (One off slice followed by one on slice measured the
// order of the slices, not the tracer: with the tracer never switched on
// the second slice still cost 10-35 % more CPU per op than the first.)
// The probe loops then run on the same data.
func runTraced(w workload, seed int64, d time.Duration, spanDir string) (*result, error) {
	g := newGen(seed)
	tr := newTracer()
	rc, err := setUp(w, g, tr, preloadReferences(w, g))
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { rc.p.close() }()

	plain, traced := &phase{log: newOpLog()}, &phase{log: newOpLog()}
	var delta counters
	// sliceHeap is each slice's mean live heap, for heap.drift_frac.
	var sliceHeap [tracedSlices]float64
	for i := range sliceHeap {
		ph := plain
		if i%2 == 1 {
			ph = traced
		}
		sum, n := ph.heapSum, ph.heapSamples
		if ph == plain {
			timed(rc, plain, d/tracedSlices)
		} else {
			before := tableCounters(rc.p)
			rc.p.w.sampleLag.Store(true)
			tr.on.Store(true)
			timed(rc, traced, d/tracedSlices)
			tr.on.Store(false)
			rc.p.w.sampleLag.Store(false)
			delta.add(tableCounters(rc.p).minus(before))
		}
		sliceHeap[i] = (ph.heapSum - sum) / float64(ph.heapSamples-n)
	}
	traced.log.attempted += plain.log.attempted
	traced.log.failed += plain.log.failed
	traced.log.errs = append(traced.log.errs, plain.log.errs...)

	res := &result{Workload: w.name, Seed: seed, Seconds: d.Seconds(), Traced: true, TailQ: w.tailQ}
	finish(res, rc, traced.log)
	res.Metrics = perLayer(rc, tr, plain, traced, delta)
	// Live heap over the last third of the run against the first third.
	res.Metrics["heap.drift_frac"] = (sliceHeap[4]+sliceHeap[5])/(sliceHeap[0]+sliceHeap[1]) - 1
	if spanDir != "" {
		if err := tr.writeSpans(filepath.Join(spanDir, "spans-"+w.name+".jsonl")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// report prints every metric by name with its unit, in the order the
// benchmark declares them.
func report(res *result, defs []metricDef) string {
	var sb strings.Builder
	kind := "untraced"
	if res.Traced {
		kind = "traced"
	}
	fmt.Fprintf(&sb, "workload=%s seed=%d seconds=%g run=%s correct=%v attempted=%d failed=%d samples=%d tail=p%.0f\n",
		res.Workload, res.Seed, res.Seconds, kind, res.Correct, res.Attempted, res.Failed, res.Samples, res.TailQ*100)
	fmt.Fprintf(&sb, "latency_ms:")
	for _, k := range []string{"p50", "p90", "p95", "p99", "p99.5", "p99.9", "p100"} {
		fmt.Fprintf(&sb, " %s=%.4g", k, res.LatencyMs[k])
	}
	fmt.Fprintln(&sb)
	for _, e := range res.Errors {
		fmt.Fprintf(&sb, "  error: %s\n", e)
	}
	for _, d := range defs {
		fmt.Fprintf(&sb, "%-32s %14.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	return sb.String()
}
