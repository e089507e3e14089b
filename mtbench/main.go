// Command mtbench is mtsim's end-to-end benchmark. It runs one named
// workload against the public library and against mtsimd servers
// started in its own process, checks every output against results
// computed apart from the layer being measured, and prints one JSON
// object as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced (spans around the benchmark's own calls into each
// layer) and the metrics are the per-layer ones derived from the spans.
// See README.md for the workloads, the metrics and what each should
// move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash mtbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// env is one run's context: its seed, time budget, scratch space,
// tracer (nil when untraced) and operation recorder.
type env struct {
	seed    uint64
	seconds time.Duration
	work    string // scratch directory, removed when the run ends
	cache   string // persists across runs in one checkout (census)
	tr      *Tracer
	rec     *recorder
	jobs    int // client connections and session workers (nproc)
}

// rng returns a generator seeded from the run seed and a stream name,
// so independent choices do not shift when one of them changes.
func (e *env) rng(stream string) *rand.Rand {
	h := uint64(14695981039346656037)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(int64(e.seed ^ h)))
}

// instance is a set-up workload.
type instance interface {
	// references computes the expected outputs the checks compare
	// against. It runs once after the last set-up and is not timed.
	references(ctx context.Context) error
	// round runs one whole round of the workload's operations.
	round(ctx context.Context) error
	// finish runs the end-of-run checks and reads the counters the
	// metrics need. It runs after the timed phase.
	finish(ctx context.Context) error
	// close releases everything the set-up made.
	close()
}

// workload is one named workload.
type workload struct {
	name string
	// prepare runs once per run before any set-up and is not timed
	// (the sweeps' census lives here).
	prepare func(e *env) (any, error)
	setup   func(ctx context.Context, e *env, prep any) (instance, error)
	// setupReps is how many times a run sets the workload up; setup_s
	// is the median, and the last set-up instance is the one measured.
	// A set-up of a few milliseconds needs more repeats for a steady
	// median than one of a few hundred.
	setupReps int
	// heapRounds is the amount of work after which live_heap_mb is
	// read: a fixed count, so the figure does not grow with throughput
	// on workloads whose retained state grows with every round.
	heapRounds int
	// configs lists the simulator configurations the workload runs; the
	// interpreter oracle check and the machine probes sample them.
	configs func() []simConfig
}

var workloads = []*workload{paperSweep, netSweep, serveNode, serveFleet}

func findWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// recorder collects one run's operation outcomes and latency samples.
// Workers of the serve workloads write to it concurrently.
type recorder struct {
	mu        sync.Mutex
	attempted int
	failed    int
	opErrs    []string
	checkErrs []string
	instrs    int64 // simulated instructions executed by the operations
	samples   map[string][]float64
}

func newRecorder() *recorder { return &recorder{samples: make(map[string][]float64)} }

// op records one operation: err is a transport error or non-2xx
// response, and counts the operation failed; a failed check is
// reported through checkFail instead.
func (r *recorder) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.opErrs) < 20 {
			r.opErrs = append(r.opErrs, err.Error())
		}
	}
}

// checkFail records a wrong output. The operation that produced it is
// counted failed too, and the run is no longer correct.
func (r *recorder) checkFail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.checkErrs = append(r.checkErrs, "check: "+fmt.Sprintf(format, args...))
}

func (r *recorder) sample(class string, v float64) {
	r.mu.Lock()
	r.samples[class] = append(r.samples[class], v)
	r.mu.Unlock()
}

func (r *recorder) addInstrs(n int64) {
	r.mu.Lock()
	r.instrs += n
	r.mu.Unlock()
}

func (r *recorder) get(class string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.samples[class]...)
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	res, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mtbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func run(args []string) (*result, error) {
	fs := flag.NewFlagSet("mtbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper-sweep, net-sweep, serve-node or serve-fleet")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch files and the census cache")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return nil, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		work: work, cache: *workdir, rec: newRecorder(),
		jobs: runtime.GOMAXPROCS(0),
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	ctx := context.Background()

	out, err := measure(ctx, w, e, 0)
	if err != nil {
		return nil, err
	}
	metrics := out.endToEnd()
	if e.tr != nil {
		// Traced: the end-to-end figures of this run go to standard
		// error only (they carry the tracing overhead), and the per-layer
		// metrics are printed.
		fmt.Fprintf(os.Stderr, "traced end-to-end: %s\n", formatMetrics(metrics))
		lm, tracers, err := perLayer(ctx, w, e)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := writeTraces(path, tracers); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", path)
		metrics = lm
	}
	for _, msg := range e.rec.opErrs {
		fmt.Fprintln(os.Stderr, "mtbench: operation failed:", msg)
	}
	for _, msg := range e.rec.checkErrs {
		fmt.Fprintln(os.Stderr, "mtbench:", msg)
	}
	return &result{
		Correct:   len(e.rec.checkErrs) == 0,
		Attempted: e.rec.attempted,
		Failed:    e.rec.failed,
		Metrics:   metrics,
	}, nil
}

// measured is what one timed phase produced.
type measured struct {
	setups     []float64 // seconds
	rounds     []float64 // seconds per round
	elapsed    time.Duration
	ops        int   // operations completed in the timed phase
	instrs     int64 // simulated instructions they executed
	allocBytes uint64
	liveHeap   uint64
	rec        *recorder
}

// measure sets the workload up w.setupReps times, runs whole rounds for
// the run's seconds and at least heapRounds rounds (or exactly
// fixedRounds rounds when positive), and runs the end-of-run checks.
func measure(ctx context.Context, w *workload, e *env, fixedRounds int) (*measured, error) {
	prep, err := w.prepare(e)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	m := &measured{rec: e.rec}
	var inst instance
	reps := w.setupReps
	if fixedRounds > 0 {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(ctx, e, prep)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if i < reps-1 {
			inst.close()
		}
	}
	defer inst.close()
	if err := inst.references(ctx); err != nil {
		return nil, fmt.Errorf("%s: references: %w", w.name, err)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var paused time.Duration // the forced GC that reads the live heap
	for {
		t0 := time.Now()
		if err := inst.round(ctx); err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name, len(m.rounds)+1, err)
		}
		m.rounds = append(m.rounds, time.Since(t0).Seconds())
		if len(m.rounds) == w.heapRounds {
			p0 := time.Now()
			m.liveHeap = liveHeap()
			paused += time.Since(p0)
		}
		done := len(m.rounds) >= max(2, w.heapRounds) && time.Since(start)-paused >= e.seconds
		if fixedRounds > 0 {
			done = len(m.rounds) >= fixedRounds
		}
		if done {
			break
		}
	}
	m.elapsed = time.Since(start) - paused
	e.rec.mu.Lock()
	m.ops, m.instrs = e.rec.attempted-e.rec.failed, e.rec.instrs
	e.rec.mu.Unlock()
	runtime.ReadMemStats(&m1)
	m.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if m.liveHeap == 0 { // a stand-in stopped before heapRounds
		m.liveHeap = liveHeap()
	}
	if err := inst.finish(ctx); err != nil {
		return nil, fmt.Errorf("%s: finish: %w", w.name, err)
	}
	return m, nil
}

// liveHeap is the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd derives the end-to-end metrics from a timed phase.
func (m *measured) endToEnd() map[string]metric {
	r := m.rec
	return map[string]metric{
		"setup_s":          {median(m.setups), "s"},
		"wall_s":           {m.elapsed.Seconds() / float64(len(m.rounds)), "s"},
		"sim_minstr_per_s": {rate(float64(m.instrs), m.elapsed) / 1e6, "Minstr/s"},
		"req_per_s":        {rate(float64(m.ops), m.elapsed), "1/s"},
		"cold_p50_ms":      {median(r.get(classCold)), "ms"},
		"hit_p50_ms":       {median(r.get(classHit)), "ms"},
		"alloc_mb":         {float64(m.allocBytes) / float64(len(m.rounds)) / 1e6, "MB"},
		"live_heap_mb":     {float64(m.liveHeap) / 1e6, "MB"},
	}
}

// Latency sample classes shared by all workloads.
const (
	classCold = "cold" // sweeps: render in a fresh session; serve: sync run missing the memo
	classHit  = "hit"  // sweeps: re-render on the warm session; serve: memo-hit sync run
)

func formatMetrics(ms map[string]metric) string {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.6g%s", k, ms[k].Value, ms[k].Unit)
	}
	return b.String()
}
