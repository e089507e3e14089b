package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/machine"
	"mtsim/internal/serve"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestTailQuantileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {39, 0.5}, {40, 0.75}, {100, 0.9}, {1000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentileOf(xs, 0.9); err == nil {
		t.Error("p90 of 99 samples has fewer than 10 beyond it, want an error")
	}
	xs = append(xs, 99)
	if got, err := percentileOf(xs, 0.9); err != nil || math.Abs(got-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, %v; want 89.1", got, err)
	}
	if got, err := percentileOf(xs[:3], 0.5); err != nil || got != 1 {
		t.Errorf("median of 3 samples = %v, %v; want 1", got, err)
	}
	if _, err := percentileOf(nil, 0.5); err == nil {
		t.Error("median of no samples should be an error")
	}
	if n := samplesFor(0.9); n != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", n)
	}
	if n := samplesFor(0.5); n != minTailSamples {
		t.Errorf("samplesFor(0.5) = %d, want %d", n, minTailSamples)
	}
}

func TestRate(t *testing.T) {
	if got := rate(300, 1500*time.Millisecond); got != 200 {
		t.Errorf("rate = %v, want 200", got)
	}
	if got := rate(5, 0); got != 0 {
		t.Errorf("rate over no time = %v, want 0", got)
	}
	if got := meanMS([]time.Duration{time.Millisecond, 3 * time.Millisecond}); got != 2 {
		t.Errorf("meanMS = %v, want 2", got)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past root
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(0, "x")
	sp.EndWork(3)
	tr.Count("n", 1)
	tr.Record(0, "y", time.Now(), time.Second, 0, 0, 0)
	if sp.ID() != 0 {
		t.Error("nil tracer span has an id")
	}
}

func TestRecorderCountsFailures(t *testing.T) {
	r := newRecorder()
	r.op(nil)
	r.op(context.DeadlineExceeded)
	r.op(nil)
	r.checkFail("wrong %s", "bytes")
	if r.attempted != 3 || r.failed != 2 || len(r.checkErrs) != 1 || len(r.opErrs) != 1 {
		t.Errorf("attempted/failed/checks/ops = %d/%d/%d/%d, want 3/2/1/1",
			r.attempted, r.failed, len(r.checkErrs), len(r.opErrs))
	}
}

func TestCheckEfficiencyRejectsOutOfRange(t *testing.T) {
	for _, eff := range []float64{0, -0.1, 1.0001, math.NaN(), math.Inf(1)} {
		if checkEfficiency("x", eff) == nil {
			t.Errorf("efficiency %v accepted", eff)
		}
	}
	for _, eff := range []float64{1e-9, 0.5, 1} {
		if err := checkEfficiency("x", eff); err != nil {
			t.Errorf("efficiency %v rejected: %v", eff, err)
		}
	}
}

// TestOracleRejectsAWrongResult runs one configuration under both
// engines, then corrupts one counter of the interpreted result.
func TestOracleRejectsAWrongResult(t *testing.T) {
	ctx := context.Background()
	c := servedConfigs()[0]
	a := apps.MustNew(c.App, app.Quick)
	fast, _, err := libraryRun(ctx, a, c.Cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	icfg := c.Cfg
	icfg.DispatchMode = machine.DispatchInterpreted
	slow, _, err := libraryRun(ctx, a, icfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(fast, slow) {
		t.Fatal("compiled and interpreted results differ on an unmodified run")
	}
	bad := *slow
	bad.Instrs++
	if sameResult(fast, &bad) {
		t.Error("a result with one extra instruction passed the oracle")
	}
}

func TestCensusRejectsAWrongRender(t *testing.T) {
	c := &census{Hashes: map[string]string{"table1": sha("rendered table\n")}}
	if err := c.check("table1", "rendered table\n"); err != nil {
		t.Errorf("matching render rejected: %v", err)
	}
	if c.check("table1", "rendered tab1e\n") == nil {
		t.Error("a render with one wrong byte passed")
	}
}

func servedFixture(t *testing.T) ([]byte, []byte, reference) {
	t.Helper()
	rr := &serve.RunResponse{Schema: 1, App: "sieve", Scale: "quick", Model: "switch-on-load",
		Cycles: 1000, Instrs: 4000, BaselineCycles: 3000, Speedup: 3, Efficiency: 0.375}
	ref := reference{cycles: 1000, instrs: 4000, base: 3000, eff: 0.375}
	v1, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := json.Marshal(&serve.V2Job{Schema: 2, Status: serve.JobDone, Result: v1})
	if err != nil {
		t.Fatal(err)
	}
	return v1, v2, ref
}

func TestCheckServedRejectsWrongReplies(t *testing.T) {
	v1, v2, ref := servedFixture(t)
	if n, err := checkServed(v1, v1, false, ref); err != nil || n != 4000 {
		t.Fatalf("correct v1 reply: %d, %v", n, err)
	}
	if _, err := checkServed(v2, v2, true, ref); err != nil {
		t.Fatalf("correct v2 reply: %v", err)
	}
	// A reply whose bytes differ from the owner's.
	other := []byte(strings.Replace(string(v1), `"cycles":1000`, `"cycles":1001`, 1))
	if _, err := checkServed(other, v1, false, ref); err == nil {
		t.Error("a reply differing from the owner's bytes passed")
	}
	// A reply that repeats the owner's bytes but disagrees with the
	// library reference (the owner itself was wrong).
	for _, bad := range []reference{
		{cycles: 999, instrs: 4000, base: 3000, eff: 0.375},
		{cycles: 1000, instrs: 4001, base: 3000, eff: 0.375},
		{cycles: 1000, instrs: 4000, base: 2999, eff: 0.375},
		{cycles: 1000, instrs: 4000, base: 3000, eff: 0.376},
		{cycles: 1000, instrs: 4000, base: 3000, eff: 0.375, metrics: []byte(`{"schema":1}`)},
	} {
		if _, err := checkServed(v1, v1, false, bad); err == nil {
			t.Errorf("reply passed against a different reference %+v", bad)
		}
	}
	// An efficiency outside (0, 1] that both sides agree on.
	rr := &serve.RunResponse{Cycles: 10, Instrs: 10, BaselineCycles: 30, Efficiency: 1.5}
	b, _ := json.Marshal(rr)
	if _, err := checkServed(b, b, false, reference{cycles: 10, instrs: 10, base: 30, eff: 1.5}); err == nil {
		t.Error("an efficiency of 1.5 passed")
	}
}

func TestCheckAsyncRejectsWrongResults(t *testing.T) {
	want, err := json.Marshal(&serve.BatchResponse{Schema: 1, Scale: "quick",
		Results: []*serve.BatchJobResult{{App: "sieve", Cycles: 10, Instrs: 7, Efficiency: 0.5}, {App: "sor", Cycles: 20, Instrs: 9, Efficiency: 0.25}},
		Errors:  []string{"", ""}})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := checkAsync(want, want); err != nil || n != 16 {
		t.Fatalf("matching result: %d, %v", n, err)
	}
	wrong := []byte(strings.Replace(string(want), `"instrs":9`, `"instrs":8`, 1))
	if _, err := checkAsync(wrong, want); err == nil {
		t.Error("an async result differing from the sync batch passed")
	}
	failed, _ := json.Marshal(&serve.BatchResponse{Results: []*serve.BatchJobResult{nil}, Errors: []string{"boom"}, Failed: 1})
	if _, err := checkAsync(failed, failed); err == nil {
		t.Error("a batch with a failed job passed")
	}
}

func TestScriptMakeUpIsFixed(t *testing.T) {
	b := &serveBench{nodes: make([]*benchNode, 3)}
	e := &env{seed: 7}
	counts := func(ops []scriptOp) [4]int {
		var c [4]int
		for _, op := range ops {
			c[op.typ]++
		}
		return c
	}
	first := counts(b.script(e.rng("pass-1")))
	for seed := uint64(1); seed < 20; seed++ {
		e.seed = seed
		if got := counts(b.script(e.rng("pass-1"))); got != first {
			t.Fatalf("seed %d: make-up %v, want %v", seed, got, first)
		}
	}
	want := [4]int{len(popular) * hitsPerKind, len(popular) * coldPerKind,
		len(metricsKinds) * metricsCold, len(asyncBatches) * asyncPerPass}
	if first != want {
		t.Errorf("make-up %v, want %v", first, want)
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the printed
// metrics in step: every end-to-end and per-layer metric the file names
// is printed, with the same unit, and nothing else is.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	m := &measured{setups: []float64{1}, rounds: []float64{1}, elapsed: time.Second, rec: newRecorder()}
	e2e := m.endToEnd()
	if len(e2e) != len(doc.EndToEnd) {
		t.Errorf("%d end-to-end metrics printed, BENCHMARK.json names %d", len(e2e), len(doc.EndToEnd))
	}
	for _, d := range doc.EndToEnd {
		if got, ok := e2e[d.Name]; !ok || got.Unit != d.Unit {
			t.Errorf("end-to-end %s: printed %+v (present %v), BENCHMARK.json unit %s", d.Name, got, ok, d.Unit)
		}
	}
	if len(layerUnits) != len(doc.PerLayer) {
		t.Errorf("%d per-layer metrics printed, BENCHMARK.json names %d", len(layerUnits), len(doc.PerLayer))
	}
	for i, d := range doc.PerLayer {
		if i < len(layerUnits) && (layerUnits[i][0] != d.Name || layerUnits[i][1] != d.Unit) {
			t.Errorf("per-layer %d: printed %v, BENCHMARK.json %s %s", i, layerUnits[i], d.Name, d.Unit)
		}
	}
	for _, w := range doc.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads defined, BENCHMARK.json names %d", len(workloads), len(doc.Workloads))
	}
}

// BenchmarkSpan measures what one traced call adds: a span start and
// end on a shared tracer.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		tr.Start(0, "x").End()
	}
}
