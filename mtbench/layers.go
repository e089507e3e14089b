package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/machine/jit"
	mnet "mtsim/internal/net"
	"mtsim/internal/opt"
	"mtsim/internal/prog"
	"mtsim/internal/serve"
)

// The traced run derives every per-layer metric from spans the
// benchmark records around its own calls into each layer's public
// functions. Three groups come from traced workload operations: the
// experiment renders (exp.*, core.sims, core.memo_hits), the served
// requests (serve.* except the in-process probes) and the fleet
// (cluster.*). When the traced workload does not exercise a group, a
// short traced stand-in run of a workload that does supplies it, in its
// own tracer so groups never mix, and the printed figure is labelled
// with the stand-in it came from: it describes that workload, not the
// traced one. Everything else comes from the layer probes: each public
// call timed alone on fixed inputs or on a seeded sample of the
// workload's configurations.

// Pass counts of the stand-in serve runs: the node run plays enough
// passes for a p90 of its cold runs (10 samples beyond it); the fleet
// run only needs medians.
var standInServePasses = (samplesFor(0.9) + coldPerPass - 1) / coldPerPass

const standInFleetPasses = 4

// layerUnits lists every per-layer metric with its unit, in output order.
var layerUnits = func() [][2]string {
	out := [][2]string{
		{"apps.new_us", "us"},
		{"opt.optimize_us", "us"},
		{"jit.compile_us", "us"},
		{"machine.compiled_ns_per_instr", "ns"},
		{"machine.interp_ns_per_instr", "ns"},
		{"machine.allocs_per_run", "count"},
		{"machine.kb_per_run", "KB"},
		{"cache.ns_per_instr", "ns"},
	}
	for _, n := range netVariants {
		out = append(out, [2]string{"net." + n.name + "_ns_per_instr", "ns"})
	}
	out = append(out, [][2]string{
		{"core.memo_hit_us", "us"},
		{"core.baseline_ms", "ms"},
		{"core.sims", "count"},
		{"core.memo_hits", "count"},
		{"core.checkpoint_ratio", "ratio"},
		{"snap.encode_us", "us"},
		{"snap.decode_us", "us"},
		{"snap.kb", "KB"},
		{"metrics.run_ratio", "ratio"},
	}...)
	for _, id := range append(append([]string(nil), paperIDs...), netIDs...) {
		out = append(out, [2]string{"exp." + id + "_ms", "ms"})
	}
	out = append(out, [][2]string{
		{"serve.decode_us", "us"},
		{"serve.handler_hit_us", "us"},
		{"serve.transport_us", "us"},
		{"serve.queue_ms_per_req", "ms"},
		{"serve.journal_append_us", "us"},
		{"serve.checkpoints_per_job", "count"},
		{"serve.cold_p90_ms", "ms"},
		{"serve.hit_p90_ms", "ms"},
		{"serve.async_p50_ms", "ms"},
		{"serve.journal_mb", "MB"},
		{"cluster.forward_hop_us", "us"},
		{"cluster.forwards_per_req", "count"},
		{"cluster.hedges", "count"},
	}...)
	return out
}()

// netVariant is one network model the net.* probes run.
type netVariant struct {
	name  string
	apply func(*machine.Config)
}

var netVariants = []netVariant{
	{"constant", func(*machine.Config) {}},
	{"mesh", func(c *machine.Config) { c.Topology = mnet.TopologyConfig{Kind: mnet.TopoMesh} }},
	{"fattree", func(c *machine.Config) { c.Topology = mnet.TopologyConfig{Kind: mnet.TopoFatTree} }},
	{"dragonfly", func(c *machine.Config) { c.Topology = mnet.TopologyConfig{Kind: mnet.TopoDragonfly} }},
	{"congestion", func(c *machine.Config) { c.Congestion = mnet.CongestionConfig{Enabled: true, ChannelBits: 16} }},
	{"faults", func(c *machine.Config) {
		c.Faults = mnet.FaultConfig{Enabled: true, Seed: 1, DropRate: 0.05, DupRate: 0.025, DelayRate: 0.05}
	}},
	{"jitter", func(c *machine.Config) { c.LatencyJitter = 100 }},
}

// spanSet indexes a tracer's spans by name with their self times.
type spanSet struct {
	self   map[string][]float64 // ns
	dur    map[string][]float64 // ns, children included
	work   map[string]int64
	allocs map[string][]float64
	bytes  map[string][]float64
	counts map[string]float64
}

func indexSpans(t *Tracer) *spanSet {
	spans := t.Spans()
	self := selfTimes(spans)
	s := &spanSet{self: map[string][]float64{}, dur: map[string][]float64{}, work: map[string]int64{},
		allocs: map[string][]float64{}, bytes: map[string][]float64{}, counts: t.Counts()}
	for _, sp := range spans {
		s.self[sp.Name] = append(s.self[sp.Name], float64(self[sp.ID]))
		s.dur[sp.Name] = append(s.dur[sp.Name], float64(sp.End-sp.Start))
		s.work[sp.Name] += sp.Work
		if sp.Allocs > 0 || sp.Bytes > 0 {
			s.allocs[sp.Name] = append(s.allocs[sp.Name], float64(sp.Allocs))
			s.bytes[sp.Name] = append(s.bytes[sp.Name], float64(sp.Bytes))
		}
	}
	return s
}

// selfPrefix gathers the self times of every span whose name has the
// prefix.
func (s *spanSet) selfPrefix(prefix string) []float64 {
	var out []float64
	for name, v := range s.self {
		if strings.HasPrefix(name, prefix) {
			out = append(out, v...)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perWork is total self time per unit of work (ns per simulated
// instruction for machine runs).
func (s *spanSet) perWork(name string) float64 {
	if s.work[name] == 0 {
		return 0
	}
	return sum(s.self[name]) / float64(s.work[name])
}

// perLayer runs the stand-ins and probes the traced workload needs and
// derives every per-layer metric.
func perLayer(ctx context.Context, w *workload, e *env) (map[string]metric, map[string]*Tracer, error) {
	vals := map[string]float64{}
	// src names the tracer each metric came from: the traced workload,
	// a stand-in, or the probes.
	src := map[string]string{}
	from := func(tracer string, names ...string) {
		for _, n := range names {
			src[n] = tracer
		}
	}
	main := indexSpans(e.tr)
	tracers := map[string]*Tracer{w.name: e.tr}

	// Experiment renders: this workload's rounds when it is a sweep, and
	// one stand-in round of each other sweep.
	exps := map[*workload]*spanSet{}
	expSrc := map[*workload]string{}
	for _, sw := range []*workload{paperSweep, netSweep} {
		if sw == w {
			exps[sw], expSrc[sw] = main, w.name
			continue
		}
		tr, err := standIn(ctx, e, sw, 1)
		if err != nil {
			return nil, nil, err
		}
		expSrc[sw] = sw.name + "-stand-in"
		tracers[expSrc[sw]] = tr
		exps[sw] = indexSpans(tr)
	}
	for sw, ids := range map[*workload][]string{paperSweep: paperIDs, netSweep: netIDs} {
		for _, id := range ids {
			vals["exp."+id+"_ms"] = median(exps[sw].self["exp.render/"+id]) / 1e6
			from(expSrc[sw], "exp."+id+"_ms")
		}
	}
	counted := paperSweep
	if w == netSweep {
		counted = netSweep
	}
	vals["core.sims"] = exps[counted].counts["core.sims"] / exps[counted].counts["exp.rounds"]
	vals["core.memo_hits"] = exps[counted].counts["core.memo_hits"] / exps[counted].counts["exp.rounds"]
	from(expSrc[counted], "core.sims", "core.memo_hits")

	// Served requests: this workload's, or a stand-in serve-node run.
	srv, srvSrc := main, w.name
	if len(main.self["serve.async"]) == 0 {
		tr, err := standIn(ctx, e, serveNode, standInServePasses)
		if err != nil {
			return nil, nil, err
		}
		srvSrc = "serve-node-stand-in"
		tracers[srvSrc] = tr
		srv = indexSpans(tr)
	}
	if err := serveMetrics(srv, vals); err != nil {
		return nil, nil, err
	}
	from(srvSrc, "serve.cold_p90_ms", "serve.hit_p90_ms", "serve.async_p50_ms", "serve.queue_ms_per_req",
		"serve.checkpoints_per_job", "serve.journal_mb")

	// The fleet: this workload's, or a stand-in serve-fleet run.
	fleet, fleetSrc := main, w.name
	if len(main.self["serve.request/hit/forwarded"]) == 0 {
		tr, err := standIn(ctx, e, serveFleet, standInFleetPasses)
		if err != nil {
			return nil, nil, err
		}
		fleetSrc = "serve-fleet-stand-in"
		tracers[fleetSrc] = tr
		fleet = indexSpans(tr)
	}
	from(fleetSrc, "cluster.forward_hop_us", "cluster.forwards_per_req", "cluster.hedges")
	vals["cluster.forward_hop_us"] = (median(fleet.self["serve.request/hit/forwarded"]) -
		median(fleet.self["serve.request/hit/owner"])) / 1e3
	vals["cluster.forwards_per_req"] = fleet.counts["cluster.forwards"] / fleet.counts["cluster.requests"]
	vals["cluster.hedges"] = fleet.counts["cluster.hedges"]

	// Layer probes.
	ptr := newTracer()
	tracers["probes"] = ptr
	if err := probes(ctx, e, ptr, w.configs()); err != nil {
		return nil, nil, err
	}
	p := indexSpans(ptr)
	vals["apps.new_us"] = median(p.self["apps.New"]) / 1e3
	vals["opt.optimize_us"] = median(p.self["opt.Optimize"]) / 1e3
	vals["jit.compile_us"] = median(p.self["jit.Compile"]) / 1e3
	vals["machine.compiled_ns_per_instr"] = p.perWork("machine.run/compiled")
	vals["machine.interp_ns_per_instr"] = p.perWork("machine.run/interpreted")
	vals["machine.allocs_per_run"] = median(p.allocs["machine.run/compiled"])
	vals["machine.kb_per_run"] = median(p.bytes["machine.run/compiled"]) / 1e3
	vals["cache.ns_per_instr"] = p.perWork("cache.run")
	for _, n := range netVariants {
		vals["net."+n.name+"_ns_per_instr"] = p.perWork("net.run/" + n.name)
	}
	vals["core.memo_hit_us"] = median(p.self["core.RunContext/hit"]) / 1e3
	vals["core.baseline_ms"] = median(p.self["core.BaselineContext"]) / 1e6
	vals["core.checkpoint_ratio"] = sum(p.self["core.RunCheckpointedContext"]) / sum(p.self["core.RunContext/plain"])
	vals["snap.encode_us"] = median(p.self["snap.Snapshot"]) / 1e3
	vals["snap.decode_us"] = median(p.self["snap.RestoreMachine"]) / 1e3
	vals["snap.kb"] = float64(p.work["snap.Snapshot"]) / float64(len(p.self["snap.Snapshot"])) / 1e3
	vals["metrics.run_ratio"] = sum(p.self["metrics.run/on"]) / sum(p.self["metrics.run/off"])
	vals["serve.decode_us"] = median(p.self["serve.decode"]) / 1e3
	vals["serve.handler_hit_us"] = median(p.self["serve.handler/hit"]) / 1e3
	vals["serve.transport_us"] = (median(p.self["serve.loopback/hit"]) - median(p.self["serve.handler/hit"])) / 1e3
	vals["serve.journal_append_us"] = median(p.self["serve.journal.append"]) / 1e3

	out := make(map[string]metric, len(layerUnits))
	for _, lu := range layerUnits {
		v, ok := vals[lu[0]]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", lu[0])
		}
		out[lu[0]] = metric{v, lu[1]}
		if src[lu[0]] == "" {
			src[lu[0]] = "probes"
		}
	}
	printLayers(out, src, tracers)
	return out, tracers, nil
}

// serveMetrics derives the serve.* metrics that come from served
// requests and the servers' counters.
func serveMetrics(s *spanSet, vals map[string]float64) error {
	cold := s.selfPrefix("serve.request/cold")
	hit := s.selfPrefix("serve.request/hit")
	p, err := percentileOf(cold, 0.9)
	if err != nil {
		return fmt.Errorf("serve.cold_p90_ms: %w", err)
	}
	vals["serve.cold_p90_ms"] = p / 1e6
	if p, err = percentileOf(hit, 0.9); err != nil {
		return fmt.Errorf("serve.hit_p90_ms: %w", err)
	}
	vals["serve.hit_p90_ms"] = p / 1e6
	// The latency a caller sees is the whole async span, its submit and
	// events children included.
	vals["serve.async_p50_ms"] = median(s.dur["serve.async"]) / 1e6
	vals["serve.queue_ms_per_req"] = s.counts["serve.queue_ms"] / s.counts["serve.jobs"]
	vals["serve.checkpoints_per_job"] = s.counts["serve.checkpoints"] / s.counts["serve.async_jobs"]
	vals["serve.journal_mb"] = s.counts["serve.journal_bytes"] / 1e6
	return nil
}

// printLayers prints each per-layer metric with the tracer it came from,
// after the spans behind it.
func printLayers(out map[string]metric, src map[string]string, tracers map[string]*Tracer) {
	names := make([]string, 0, len(tracers))
	for n := range tracers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := indexSpans(tracers[n])
		keys := make([]string, 0, len(s.self))
		for k := range s.self {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("span %-22s %-34s n=%-5d self=%.3fms\n", n, k, len(s.self[k]), sum(s.self[k])/1e6)
		}
	}
	for _, lu := range layerUnits {
		fmt.Printf("layer %-32s %14.4f %-6s from %s\n", lu[0], out[lu[0]].Value, lu[1], src[lu[0]])
	}
}

// standIn runs w traced for a fixed number of rounds into its own
// tracer. Its operations count toward this run's attempted and failed.
func standIn(ctx context.Context, e *env, w *workload, rounds int) (*Tracer, error) {
	sub := *e
	sub.tr = newTracer()
	if _, err := measure(ctx, w, &sub, rounds); err != nil {
		return nil, err
	}
	return sub.tr, nil
}

// timed runs f with heap statistics around it and records a span.
func timed(tr *Tracer, name string, work func() (int64, error)) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n, err := work()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	tr.Record(0, name, t0, d, n, int64(m1.Mallocs-m0.Mallocs), int64(m1.TotalAlloc-m0.TotalAlloc))
	return nil
}

// probes times each layer's public calls alone.
func probes(ctx context.Context, e *env, tr *Tracer, configs []simConfig) error {
	r := e.rng("probes")
	sample := sampleConfigs(r, configs, 4)

	// Application build, grouping and compilation per distinct app of
	// the workload.
	seen := map[string]bool{}
	var names []string
	for _, c := range configs {
		if !seen[c.App] {
			seen[c.App] = true
			names = append(names, c.App)
		}
	}
	built := map[string]*app.App{}
	for _, n := range names {
		for i := 0; i < 3; i++ {
			sp := tr.Start(0, "apps.New")
			a, err := apps.New(n, app.Quick)
			sp.End()
			if err != nil {
				return err
			}
			built[n] = a
		}
		a := built[n]
		sp := tr.Start(0, "opt.Optimize")
		g, _, err := opt.Optimize(a.Raw)
		sp.End()
		if err != nil {
			return err
		}
		for _, p := range []*prog.Program{a.Raw, g} {
			sp := tr.Start(0, "jit.Compile")
			jit.Compile(p)
			sp.End()
		}
	}

	// Machine runs under each dispatch engine, cache models, network
	// models.
	runMachine := func(name string, a *app.App, cfg machine.Config) (*machine.Result, error) {
		p, err := a.ProgramFor(cfg.Model)
		if err != nil {
			return nil, err
		}
		var res *machine.Result
		err = timed(tr, name, func() (int64, error) {
			res, err = machine.RunCheckedContext(ctx, cfg, p, a.Init, a.Check)
			if err != nil {
				return 0, err
			}
			return res.Instrs, nil
		})
		return res, err
	}
	for _, c := range sample {
		a := built[c.App]
		for rep := 0; rep < 2; rep++ {
			if c.Cfg.Model != machine.SwitchEveryCycle {
				cfg := c.Cfg
				cfg.DispatchMode = machine.DispatchCompiled
				if _, err := runMachine("machine.run/compiled", a, cfg); err != nil {
					return err
				}
			}
			cfg := c.Cfg
			cfg.DispatchMode = machine.DispatchInterpreted
			if _, err := runMachine("machine.run/interpreted", a, cfg); err != nil {
				return err
			}
		}
	}
	for _, n := range names[:min(2, len(names))] {
		a := built[n]
		for _, m := range []machine.Model{machine.SwitchOnMiss, machine.SwitchOnUseMiss, machine.ConditionalSwitch} {
			cfg := machine.Config{Procs: a.TableProcs, Threads: 4, Model: m, Latency: machine.DefaultLatency}
			if _, err := runMachine("cache.run", a, cfg); err != nil {
				return err
			}
		}
	}
	for _, n := range apps.IrregularNames() {
		a, err := apps.New(n, app.Quick)
		if err != nil {
			return err
		}
		for _, v := range netVariants {
			cfg := machine.Config{Procs: a.TableProcs, Threads: 4, Model: machine.SwitchOnLoad, Latency: machine.DefaultLatency}
			v.apply(&cfg)
			if _, err := runMachine("net.run/"+v.name, a, cfg); err != nil {
				return err
			}
		}
	}

	// Session layer: memo hits, baselines, checkpointed runs, metrics.
	for _, c := range sample[:min(2, len(sample))] {
		a := built[c.App]
		sess := core.NewSession()
		sp := tr.Start(0, "core.RunContext/plain")
		res, err := sess.RunContext(ctx, a, c.Cfg)
		sp.End()
		if err != nil {
			return err
		}
		for i := 0; i < 50; i++ {
			sp := tr.Start(0, "core.RunContext/hit")
			_, err := sess.RunContext(ctx, a, c.Cfg)
			sp.End()
			if err != nil {
				return err
			}
		}
		sp = tr.Start(0, "core.RunCheckpointedContext")
		_, err = core.NewSession().RunCheckpointedContext(ctx, a, c.Cfg, core.CheckpointConfig{Interval: serveCheckpointEvery})
		sp.End()
		if err != nil {
			return err
		}
		for _, on := range []bool{true, false} {
			s := core.NewSession()
			s.CollectMetrics = on
			name := "metrics.run/off"
			if on {
				name = "metrics.run/on"
			}
			sp := tr.Start(0, name)
			_, err := s.RunContext(ctx, a, c.Cfg)
			sp.End()
			if err != nil {
				return err
			}
		}
		if err := snapProbe(ctx, tr, a, c.Cfg, res.Cycles); err != nil {
			return err
		}
	}
	for _, n := range names {
		sp := tr.Start(0, "core.BaselineContext")
		_, err := core.NewSession().BaselineContext(ctx, built[n])
		sp.End()
		if err != nil {
			return err
		}
	}
	return serveProbes(ctx, e, tr)
}

// serveCheckpointEvery is the serving layer's default checkpoint
// interval (serve.Config.CheckpointEvery).
const serveCheckpointEvery = 100_000

// snapProbe pauses a run half way and times Snapshot and RestoreMachine.
func snapProbe(ctx context.Context, tr *Tracer, a *app.App, cfg machine.Config, cycles int64) error {
	p, err := a.ProgramFor(cfg.Model)
	if err != nil {
		return err
	}
	mc, err := machine.NewMachine(cfg, p, a.Init)
	if err != nil {
		return err
	}
	if _, err := mc.RunUntil(ctx, cycles/2); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		sp := tr.Start(0, "snap.Snapshot")
		data, err := mc.Snapshot()
		sp.EndWork(int64(len(data)))
		if err != nil {
			return err
		}
		sp = tr.Start(0, "snap.RestoreMachine")
		_, err = machine.RestoreMachine(data, p)
		sp.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// serveProbes times the serving layer's pieces in-process: request
// decoding, the handler on a memo hit (into a recorder and over
// loopback), and journal appends with their fsync.
func serveProbes(ctx context.Context, e *env, tr *Tracer) error {
	bodies := make([][]byte, len(popular))
	for i, k := range popular {
		bodies[i] = runBody(k, 0, false, false)
	}
	for rep := 0; rep < 20; rep++ {
		for _, body := range bodies {
			sp := tr.Start(0, "serve.decode")
			var rr serve.RunRequest
			err := json.Unmarshal(body, &rr)
			if err == nil {
				_, err = rr.Config.ToMachine()
			}
			if err == nil {
				_, err = apps.New(rr.App, app.Quick)
			}
			sp.End()
			if err != nil {
				return err
			}
		}
	}

	s := serve.New(serve.Config{})
	h := s.Handler()
	post := func(body []byte) (int, error) {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body)))
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return w.Code, fmt.Errorf("handler probe: status %d: %s", w.Code, w.Body.String())
		}
		return w.Code, nil
	}
	for _, body := range bodies { // warm the memo
		if _, err := post(body); err != nil {
			return err
		}
	}
	for rep := 0; rep < 20; rep++ {
		for _, body := range bodies {
			sp := tr.Start(0, "serve.handler/hit")
			_, err := post(body)
			sp.End()
			if err != nil {
				return err
			}
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(l)
	}()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	url := "http://" + l.Addr().String() + "/v1/run"
	var perr error
	for rep := 0; rep < 20 && perr == nil; rep++ {
		for _, body := range bodies {
			sp := tr.Start(0, "serve.loopback/hit")
			resp, err := hc.Post(url, "application/json", strings.NewReader(string(body)))
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("loopback probe: status %d", resp.StatusCode)
				}
			}
			sp.End()
			if err != nil {
				perr = err
				break
			}
		}
	}
	_ = hs.Close()
	<-done
	hc.CloseIdleConnections()
	if perr != nil {
		return perr
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		return err
	}
	return journalProbe(e, tr)
}

// journalProbe appends submit, checkpoint and done records to a scratch
// journal; each append fsyncs.
func journalProbe(e *env, tr *Tracer) error {
	j, _, err := serve.OpenJournal(filepath.Join(e.work, "probe.wal"))
	if err != nil {
		return err
	}
	body := runBody(popular[0], 0, false, false)
	ckpt := make([]byte, 64<<10)
	resp := []byte(`{"schema":1,"results":[]}`)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("probe-%d", i)
		for _, step := range []func() error{
			func() error { return j.AppendSubmit(id, id, "anonymous", body) },
			func() error { return j.AppendCkpt(id, 0, int64(i)*serveCheckpointEvery, ckpt) },
			func() error { return j.AppendDone(id, resp, nil) },
		} {
			sp := tr.Start(0, "serve.journal.append")
			err := step()
			sp.End()
			if err != nil {
				j.Close()
				return err
			}
		}
	}
	return j.Close()
}
