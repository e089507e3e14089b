package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/core"
	"mtsim/internal/exp"
	"mtsim/internal/machine"
)

// The sweep workloads render experiments through the library, as a
// reproducer running cmd/experiments does. One round renders every
// experiment of the workload in a fresh session (the cold render), then
// renders the memoized ones again warmRenders times, with one worker, on
// the now-warm session (the hit renders: every simulation is a memo
// hit). Each render contributes one latency sample, its mean time per
// experiment: the experiments differ in size by three orders of
// magnitude, so a median over single experiments would sit between two
// of them and jump with noise.

var paperIDs = []string{
	"figure1", "table1", "figure2", "table2", "figure3", "table3",
	"figure4", "table4", "table5", "table6", "table7", "table8",
}

var netIDs = []string{"ablation-jitter", "ablation-network", "ablation-topology", "ablation-faults"}

// unmemoized names the experiments that simulate outside the session,
// so that a warm session does not answer them from the memo: table5's
// penalty column runs each application's grouped program on the ideal
// 1x1 machine directly. The hit renders leave them out, and the census
// counts their direct runs (directInstrs).
var unmemoized = map[string]bool{"table5": true}

// directInstrs is the simulated instructions of the runs the unmemoized
// experiments among ids make outside the session, in one render.
func directInstrs(o *exp.Options, ids []string) (int64, error) {
	var n int64
	for _, id := range ids {
		if id != "table5" {
			continue
		}
		for _, a := range o.Apps() {
			g, _, err := a.Grouped()
			if err != nil {
				return 0, err
			}
			res, err := machine.RunChecked(machine.Config{Procs: 1, Threads: 1, Model: machine.Ideal}, g, a.Init, a.Check)
			if err != nil {
				return 0, err
			}
			n += res.Instrs
		}
	}
	return n, nil
}

var paperSweep = &workload{
	name:    "paper-sweep",
	prepare: func(e *env) (any, error) { return loadCensus(e, "paper-sweep", paperIDs) },
	setup: func(ctx context.Context, e *env, prep any) (instance, error) {
		return newSweep(e, paperIDs, prep.(*census), paperConfigs)
	},
	configs:    paperConfigs,
	setupReps:  101,
	heapRounds: 2,
}

var netSweep = &workload{
	name:    "net-sweep",
	prepare: func(e *env) (any, error) { return loadCensus(e, "net-sweep", netIDs) },
	setup: func(ctx context.Context, e *env, prep any) (instance, error) {
		return newSweep(e, netIDs, prep.(*census), netConfigs)
	},
	configs:    netConfigs,
	setupReps:  101,
	heapRounds: 2,
}

// warmRenders is how many warm re-renders a round makes. A warm render
// takes about 1 ms, against seconds for the cold one, so it costs little
// to take enough hit samples for a steady median.
const warmRenders = 40

// oracleSamples is how many of a workload's configurations each run
// re-runs under the interpreter.
const oracleSamples = 4

// census holds what one interpreted render of a sweep established: the
// simulated instructions of one cold round (the session's simulations
// plus the unmemoized experiments' direct runs), the session's
// simulation count, and the SHA-256 of every experiment's output. Every
// compiled round must reproduce the outputs byte for byte (the
// interpreter is the compiled engine's oracle) with the same number of
// simulations.
type census struct {
	Instrs int64             `json:"instrs"`
	Sims   int64             `json:"sims"`
	Hashes map[string]string `json:"hashes"`
}

// check compares a compiled render with the census render.
func (c *census) check(id, out string) error {
	if sha(out) != c.Hashes[id] {
		return fmt.Errorf("%s: compiled render differs from the interpreted census render", id)
	}
	return nil
}

func experiments(ids []string) ([]*exp.Experiment, error) {
	out := make([]*exp.Experiment, len(ids))
	for i, id := range ids {
		x, err := exp.ByID(id)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

func sha(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// exeHash identifies the benchmark binary, which embeds the program
// under test: a census is reused only by the binary that made it.
var exeHash = sync.OnceValues(func() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
})

// loadCensus reads the sweep's census from the checkout's cache, making
// it first if this binary has none: one render with cycle accounting
// on, which runs every memoized simulation under the interpreter.
func loadCensus(e *env, name string, ids []string) (*census, error) {
	hash, err := exeHash()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(e.cache, fmt.Sprintf("census-%s-%s.json", name, hash))
	if b, err := os.ReadFile(path); err == nil {
		var c census
		if err := json.Unmarshal(b, &c); err == nil && len(c.Hashes) == len(ids) {
			return &c, nil
		}
	}
	exps, err := experiments(ids)
	if err != nil {
		return nil, err
	}
	o := exp.New(io.Discard, exp.WithScale(app.Quick), exp.WithJobs(e.jobs), exp.WithMetrics(true))
	outs, _, err := exp.Rendered(o, exps)
	if err != nil {
		return nil, fmt.Errorf("census render: %w", err)
	}
	bm := o.Sess.Metrics()
	direct, err := directInstrs(o, ids)
	if err != nil {
		return nil, fmt.Errorf("census direct runs: %w", err)
	}
	c := &census{Instrs: bm.Counters.Instrs + direct, Sims: bm.Engine.Sims, Hashes: make(map[string]string)}
	for i, id := range ids {
		c.Hashes[id] = sha(outs[i])
	}
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return c, os.Rename(tmp, path)
}

type sweep struct {
	e       *env
	ids     []string
	exps    []*exp.Experiment
	warm    []int // indexes of the memoized experiments, re-rendered warm
	o       *exp.Options
	census  *census
	configs func() []simConfig
}

// newSweep is the sweeps' set-up: the options with every application
// the renders use built at the quick scale, grouped variants included.
func newSweep(e *env, ids []string, c *census, configs func() []simConfig) (*sweep, error) {
	exps, err := experiments(ids)
	if err != nil {
		return nil, err
	}
	o := exp.New(io.Discard, exp.WithScale(app.Quick), exp.WithJobs(e.jobs))
	kernels, err := o.KernelApps()
	if err != nil {
		return nil, err
	}
	for _, a := range append(append([]*app.App(nil), o.Apps()...), kernels...) {
		if _, _, err := a.Grouped(); err != nil {
			return nil, err
		}
	}
	s := &sweep{e: e, ids: ids, exps: exps, o: o, census: c, configs: configs}
	for i, id := range ids {
		if !unmemoized[id] {
			s.warm = append(s.warm, i)
		}
	}
	return s, nil
}

// references is empty: the census made in prepare holds the sweeps'
// expected outputs.
func (s *sweep) references(context.Context) error { return nil }

func (s *sweep) round(ctx context.Context) error {
	s.o.Sess = core.NewSession()
	s.o.Sess.Workers = s.e.jobs
	tr, rec := s.e.tr, s.e.rec

	sp := tr.Start(0, "exp.round")
	start := time.Now()
	outs, times, err := exp.Rendered(s.o, s.exps)
	if err != nil {
		return err
	}
	sp.EndWork(s.census.Instrs)
	tr.Count("core.sims", float64(s.o.Sess.SimCount()))
	tr.Count("core.memo_hits", float64(s.o.Sess.MemoHits()))
	tr.Count("exp.rounds", 1)
	if n := s.o.Sess.SimCount(); n != s.census.Sims {
		rec.checkFail("cold render ran %d simulations, the census render %d", n, s.census.Sims)
	}
	rec.sample(classCold, meanMS(times))
	for i, id := range s.ids {
		rec.op(nil)
		tr.Record(sp.ID(), "exp.render/"+id, start, times[i], 0, 0, 0)
		if err := s.census.check(id, outs[i]); err != nil {
			rec.checkFail("%v", err)
		}
	}
	rec.addInstrs(s.census.Instrs)

	// Every memoized simulation of a warm render is a memo hit, so there
	// is little to spread over workers; with two, such a render times
	// goroutine wake-ups across CPUs (3x slower and 4x noisier run to
	// run on a 2-vCPU host).
	one := *s.o
	one.Jobs = 1
	exps := make([]*exp.Experiment, len(s.warm))
	for j, i := range s.warm {
		exps[j] = s.exps[i]
	}
	for r := 0; r < warmRenders; r++ {
		hsp := tr.Start(0, "exp.round/warm")
		warm, times, err := exp.Rendered(&one, exps)
		if err != nil {
			return err
		}
		hsp.End()
		rec.sample(classHit, meanMS(times))
		if n := s.o.Sess.SimCount(); n != s.census.Sims {
			rec.checkFail("warm render simulated %d times; every run should be a memo hit", n-s.census.Sims)
		}
		for j, i := range s.warm {
			rec.op(nil)
			if warm[j] != outs[i] {
				rec.checkFail("%s: warm-session render differs from the cold render", s.ids[i])
			}
		}
	}
	return nil
}

func (s *sweep) finish(ctx context.Context) error {
	return oracleCheck(ctx, s.e, sampleConfigs(s.e.rng("oracle"), s.configs(), oracleSamples))
}

func (s *sweep) close() {}

// meanMS is the mean of ds in milliseconds.
func meanMS(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t) / float64(len(ds))
}
