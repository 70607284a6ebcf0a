package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/gateway"
)

type runConfig struct {
	seed     int64
	measure  time.Duration
	traced   bool
	traceOut string
}

type runResult struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
}

// workload is one deployment and the load the benchmark drives through it.
type workload interface {
	// base returns the bookkeeping every workload shares.
	base() *common
	// setup builds the deployment and its standing subscriptions.
	setup() error
	// close tears the deployment down and waits for its goroutines.
	close()
	// rate is the fixed-rate phase's writes per second.
	rate() float64
	// op sends op k of the deterministic op sequence, due at due.
	op(k int, due time.Time)
	// settle waits until the notifications of every op sent so far have
	// arrived, or a bound passes (missing ones fail the check later).
	settle()
	// capacity runs the closed loop for d, starting at op k, drains it,
	// and returns the completion times of the writes it completed.
	capacity(k int, d time.Duration) []time.Time
	// check quiesces the deployment, checks every output exactly and
	// records each failed operation with fail or failN.
	check()
}

var workloads = map[string]func(seed int64) workload{
	"grid-match":  newGridMatch,
	"app-crud":    newAppCRUD,
	"edge-fanout": newEdgeFanout,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// A --trace 0 run builds its deployment rounds times and runs the same
// sequence on each — set-up, warm-up, its share of the fixed-rate phase,
// its share of the closed-loop phase, check — pooling the samples.
// Throughput and CPU per write settle at a different level in each
// deployment (grid-match capacity: 613–856 writes/s over 8 single-deployment
// runs, with the windows inside one run within about ±10%), so pooling
// several deployments is what keeps run-to-run spreads down.
const (
	rounds = 5
	warmUp = 500 * time.Millisecond
)

// phase collects the samples of one measured phase. Receivers look it up
// through common.cur on every notification; nil means "not measuring".
type phase struct {
	notify    samples
	subscribe samples
	tr        *tracer
	// lateP50 and lateP99 are the pacer's lateness quantiles in ms.
	lateP50, lateP99 float64
	// cpuPerWrite is the process CPU per op, in µs, of each of the phase's
	// phaseWindows equal time windows.
	cpuPerWrite []float64
}

// phaseWindows splits a measured fixed-rate phase into equal time windows
// for the CPU-per-write median.
const phaseWindows = 6

// Tail latency is the median of per-window quantiles over up to
// tailWindows consecutive windows of at least tailWindowSamples samples
// each (1000 leaves ten samples beyond a window's p99).
const (
	tailWindows       = 20
	tailWindowSamples = 1000
)

// windowedQuantile splits vs (in arrival order) into consecutive windows
// and returns the median of the windows' q-quantiles; with too few samples
// for two windows it is the plain quantile. A stall — a GC cycle, a
// descheduled VM — then moves the few windows it hit, not the result.
func windowedQuantile(vs []float64, q float64) float64 {
	n := len(vs) / tailWindowSamples
	if n > tailWindows {
		n = tailWindows
	}
	if n < 2 {
		return quantile(vs, q)
	}
	per := make([]float64, n)
	for i := range per {
		per[i] = quantile(append([]float64(nil), vs[i*len(vs)/n:(i+1)*len(vs)/n]...), q)
	}
	return median(per)
}

// acc accumulates the duration of the benchmark's own calls into a layer.
type acc struct {
	mu  sync.Mutex
	sum time.Duration
	n   int
}

func (a *acc) add(d time.Duration) {
	a.mu.Lock()
	a.sum += d
	a.n++
	a.mu.Unlock()
}

func (a *acc) meanUS() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.n == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.n) / float64(time.Microsecond)
}

// common is the bookkeeping shared by all workloads: the current phase,
// the op and failure ledger, and the benchmark's own call timings.
type common struct {
	cur atomic.Pointer[phase]

	mu        sync.Mutex
	attempted int
	failed    int
	// failures keeps the first maxFailureMessages descriptions.
	failures []string

	// traced is set for -trace 1 runs before setup.
	traced bool

	// Timings of the benchmark's own calls, per layer: Envelope encode and
	// decode, bus Publish, storage insert (preload) and find (check), and
	// appserver write and Subscribe calls.
	tEncode, tDecode, tPublish, tInsert, tFind, tWrite, tSubscribe acc
	// Stage gaps read from the stamps on notifications the benchmark
	// decodes itself: write→ingest, ingest→match, match→receipt.
	stampIngest, stampGrid, stampBus acc

	// The deployment's layers; nil where a workload has none.
	bus *countingBus
	cl  *core.Cluster
	srv *appserver.Server
	gw  *gateway.Server
	// extra adds workload-specific cumulative counters.
	extra func(map[string]float64)
	// spread holds first→last client receipt per write (edge-fanout).
	spread samples
}

func (c *common) base() *common { return c }

// attempt counts one attempted operation.
func (c *common) attempt() {
	c.mu.Lock()
	c.attempted++
	c.mu.Unlock()
}

const maxFailureMessages = 20

// fail records one failed operation.
func (c *common) fail(format string, args ...any) { c.failN(1, format, args...) }

// failN records n failed operations under one description.
func (c *common) failN(n int, format string, args ...any) {
	c.mu.Lock()
	c.failed += n
	if len(c.failures) < maxFailureMessages {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

func (c *common) phase() *phase { return c.cur.Load() }

// run executes one benchmark run of a workload.
func run(mk func(seed int64) workload, cfg runConfig) (runResult, error) {
	if cfg.traced {
		return runTraced(mk, cfg)
	}
	fixedShare := cfg.measure * 55 / 100 / rounds
	capShare := cfg.measure * 40 / 100 / rounds
	var res runResult
	var setupTimes, heaps, rates []float64
	completed := 0
	ph := &phase{}
	writes := 0
	for i := 0; i < rounds; i++ {
		w := mk(cfg.seed)
		took, err := setUp(w)
		if err != nil {
			return runResult{}, err
		}
		setupTimes = append(setupTimes, took.Seconds())
		heaps = append(heaps, heapMB())
		k := fixedPhase(w, 0, warmUp, nil)
		n := fixedPhase(w, k, fixedShare, ph)
		writes += n
		start := time.Now()
		done := 0
		for _, t := range w.capacity(k+n, capShare) {
			if t.Sub(start) < capShare {
				done++
			}
		}
		completed += done
		rates = append(rates, float64(done)/capShare.Seconds())
		tally(w, &res)
		w.close()
		if i == 0 {
			fmt.Printf("fixed rate %.0f writes/s over %d deployments\n", w.rate(), rounds)
		}
	}
	lat := ph.notify.values()
	sub := ph.subscribe.values()
	fmt.Printf("fixed phase: %d writes, %d notification samples, %d subscribe samples\n", writes, len(lat), len(sub))
	fmt.Printf("notification tail (windowed, untracked): p90 %.4f ms, p99 %.4f ms\n",
		windowedQuantile(lat, 0.90), windowedQuantile(lat, 0.99))
	fmt.Printf("closed loop per deployment (writes/s): %.0f\n", rates)
	res.metrics = map[string]float64{
		"setup_s":          median(setupTimes),
		"heap_mb":          median(heaps),
		"notify_p50_ms":    median(lat),
		"cpu_us_per_write": median(ph.cpuPerWrite),
		"subscribe_p50_ms": median(sub),
		"capacity_wps":     float64(completed) / (capShare * rounds).Seconds(),
	}
	return res.capped(), nil
}

// setUp builds w's deployment from a collected heap and times it.
func setUp(w workload) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	if err := w.setup(); err != nil {
		w.close()
		return 0, fmt.Errorf("setup: %w", err)
	}
	return time.Since(start), nil
}

// runTraced executes a --trace 1 run on one deployment: an untraced and a
// traced fixed-rate phase, then the per-layer metrics.
func runTraced(mk func(seed int64) workload, cfg runConfig) (runResult, error) {
	w := mk(cfg.seed)
	w.base().traced = true
	if _, err := setUp(w); err != nil {
		return runResult{}, err
	}
	defer w.close()
	c := w.base()
	m := map[string]float64{}
	k := fixedPhase(w, 0, time.Second, nil)
	untraced := &phase{}
	k += fixedPhase(w, k, cfg.measure*40/100, untraced)
	m["tail.notify_p99_ms"] = windowedQuantile(untraced.notify.values(), 0.99)
	traced := &phase{tr: &tracer{}}
	before := c.counters()
	gc0 := gcPause()
	cpu0 := cpuTime()
	start := time.Now()
	qmax, stopSampler := c.sampleQueues()
	n := fixedPhase(w, k, cfg.measure*60/100, traced)
	stopSampler()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	delta := c.counters()
	for name, v := range before {
		delta[name] -= v
	}
	for name, v := range qmax() {
		delta[name] = v
	}
	m["runtime.gc_pause_ms"] = float64(gcPause()-gc0) / float64(time.Millisecond)
	m["runtime.cpu_busy_frac"] = cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	traceMetrics(m, traced, untraced)
	if err := traced.tr.writeFile(cfg.traceOut); err != nil {
		return runResult{}, err
	}
	fmt.Printf("spans written to %s\n", cfg.traceOut)
	var res runResult
	tally(w, &res)
	// Layer metrics come after the check: storage.find_ms times its pull
	// queries.
	for name, v := range c.layers(delta, n) {
		m[name] = v
	}
	res.metrics = m
	return res.capped(), nil
}

// capped bounds the failure count by the operations attempted.
func (res runResult) capped() runResult {
	if res.failed > res.attempted {
		res.failed = res.attempted
	}
	return res
}

// tally checks a deployment's outputs and adds its operations and
// failures to res.
func tally(w workload, res *runResult) {
	w.check()
	c := w.base()
	if d := c.bus.dropped(); d > 0 {
		c.failN(int(d), "the event layer dropped %d messages", d)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	res.attempted += c.attempted
	res.failed += c.failed
	for _, msg := range c.failures {
		if len(res.failures) < maxFailureMessages {
			res.failures = append(res.failures, msg)
		}
	}
}

// fixedPhase drives ops k, k+1, ... at the workload's fixed rate for d,
// then waits for their notifications. It returns the ops sent.
func fixedPhase(w workload, k int, d time.Duration, ph *phase) int {
	c := w.base()
	c.cur.Store(ph)
	start := time.Now()
	p := newPacer(wallClock{}, start, w.rate())
	// CPU is sampled at the window boundaries, just before the first op
	// due in each window.
	win := d / phaseWindows
	next, cpuMark, opMark := start.Add(win), cpuTime(), 0
	n := p.run(start.Add(d), func(i int, due time.Time) {
		if ph != nil {
			if !due.Before(next) {
				cpu := cpuTime()
				ph.cpuPerWrite = append(ph.cpuPerWrite, float64(cpu-cpuMark)/float64(time.Microsecond)/float64(i-opMark))
				next, cpuMark, opMark = next.Add(win), cpu, i
			}
			ph.tr.root(int64(k+i), due)
			ph.tr.child(int64(k+i), "gen", due.UnixNano(), time.Now().UnixNano())
		}
		w.op(k+i, due)
	})
	// The last window closes once its notifications have arrived.
	w.settle()
	if ph != nil {
		ph.cpuPerWrite = append(ph.cpuPerWrite, float64(cpuTime()-cpuMark)/float64(time.Microsecond)/float64(n-opMark))
		late := durMS(p.late)
		ph.lateP50 = quantile(late, 0.50)
		ph.lateP99 = quantile(late, 0.99)
	}
	c.cur.Store(nil)
	return n
}

// traceMetrics rolls the traced phase's spans up into stage rows that sum
// to the traced end-to-end mean, and reports tracing overhead against the
// untraced phase.
func traceMetrics(m map[string]float64, traced, untraced *phase) {
	spans := traced.tr.snapshot()
	r := rollUp(spans)
	sum := 0.0
	fmt.Printf("stage roll-up over %d traced writes (%d spans):\n", r.Roots, len(spans))
	for _, name := range stageNames {
		v := r.meanMS(name)
		m["stage."+name+"_ms"] = v
		sum += v
		fmt.Printf("  %-20s %9.4f ms\n", name, v)
	}
	u := r.meanMS(unattributed)
	m["stage.unattributed_ms"] = u
	sum += u
	e2e := 0.0
	if r.Roots > 0 {
		e2e = float64(r.Total) / float64(r.Roots) / float64(time.Millisecond)
	}
	fmt.Printf("  %-20s %9.4f ms\n  %-20s %9.4f ms (end-to-end mean %.4f ms)\n", unattributed, u, "sum", sum, e2e)
	m["trace.e2e_mean_ms"] = e2e
	m["trace.spans"] = float64(len(spans))
	tm := mean(traced.notify.values())
	um := mean(untraced.notify.values())
	m["trace.notify_mean_ms"] = tm
	m["trace.untraced_notify_mean_ms"] = um
	m["trace.overhead_ms"] = tm - um
	m["gen.late_p50_ms"] = traced.lateP50
	m["gen.late_p99_ms"] = traced.lateP99
}
