package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/core"
	"mtsim/internal/machine"
	"mtsim/internal/net"
)

// simConfig is one (application, configuration) pair a workload runs.
type simConfig struct {
	App string
	Cfg machine.Config
}

func (c simConfig) String() string {
	return fmt.Sprintf("%s/%s p%d t%d", c.App, c.Cfg.Model, c.Cfg.Procs, c.Cfg.Threads)
}

// tableProcs reads each named application's TableProcs at the quick
// scale.
func tableProcs(names []string) map[string]int {
	out := make(map[string]int, len(names))
	for _, n := range names {
		out[n] = apps.MustNew(n, app.Quick).TableProcs
	}
	return out
}

// paperModels are the non-ideal models the paper's tables sweep.
var paperModels = []machine.Model{
	machine.SwitchEveryCycle, machine.SwitchOnLoad, machine.SwitchOnUse,
	machine.ExplicitSwitch, machine.SwitchOnMiss, machine.SwitchOnUseMiss,
	machine.ConditionalSwitch,
}

// paperConfigs are configurations of the kind the paper's tables run:
// every application at its table processor count, every model, 1-8
// threads, the 200-cycle round trip.
func paperConfigs() []simConfig {
	var out []simConfig
	procs := tableProcs(apps.Names())
	for _, name := range apps.Names() {
		for _, m := range paperModels {
			for th := 1; th <= 8; th++ {
				out = append(out, simConfig{name, machine.Config{
					Procs: procs[name], Threads: th, Model: m, Latency: machine.DefaultLatency}})
			}
		}
	}
	return out
}

// netConfigs are configurations of the kind the four network ablations
// run: routed topologies on the irregular kernels, the congestion
// model, latency jitter, and fault injection.
func netConfigs() []simConfig {
	var out []simConfig
	procs := tableProcs(apps.AllNames())
	for _, name := range apps.IrregularNames() {
		for _, kind := range []net.TopologyKind{net.TopoMesh, net.TopoFatTree, net.TopoDragonfly} {
			for _, th := range []int{2, 4, 8} {
				cfg := machine.Config{Procs: procs[name], Threads: th,
					Model: machine.SwitchOnLoad, Latency: machine.DefaultLatency}
				cfg.Topology = net.TopologyConfig{Kind: kind}
				out = append(out, simConfig{name, cfg})
			}
		}
	}
	for _, name := range []string{"sor", "mp3d"} {
		for _, m := range []machine.Model{machine.ExplicitSwitch, machine.ConditionalSwitch} {
			for _, th := range []int{2, 4, 8} {
				out = append(out, simConfig{name, machine.Config{Procs: procs[name], Threads: th,
					Model: m, Latency: machine.DefaultLatency,
					Congestion: net.CongestionConfig{Enabled: true, ChannelBits: 16}}})
			}
		}
	}
	for _, name := range []string{"sieve", "sor", "water"} {
		out = append(out, simConfig{name, machine.Config{Procs: procs[name], Threads: 8,
			Model: machine.ExplicitSwitch, Latency: machine.DefaultLatency, LatencyJitter: 100}})
	}
	for _, name := range []string{"sieve", "blkmat", "sor"} {
		cfg := machine.Config{Procs: procs[name], Threads: 6,
			Model: machine.ConditionalSwitch, Latency: machine.DefaultLatency, LatencyJitter: 100}
		cfg.Faults = net.FaultConfig{Enabled: true, Seed: 1, DropRate: 0.05, DupRate: 0.025, DelayRate: 0.05}
		out = append(out, simConfig{name, cfg})
	}
	return out
}

// sampleConfigs draws n distinct configurations with r.
func sampleConfigs(r *rand.Rand, all []simConfig, n int) []simConfig {
	if n > len(all) {
		n = len(all)
	}
	idx := r.Perm(len(all))[:n]
	out := make([]simConfig, n)
	for i, k := range idx {
		out[i] = all[k]
	}
	return out
}

// libraryRun runs c in a fresh, verifying session (the application's
// Check runs against its host-computed reference) and returns the
// result and the baseline.
func libraryRun(ctx context.Context, a *app.App, cfg machine.Config, collectMetrics bool) (*machine.Result, int64, error) {
	sess := core.NewSession()
	sess.CollectMetrics = collectMetrics
	res, err := sess.RunContext(ctx, a, cfg)
	if err != nil {
		return nil, 0, err
	}
	base, err := sess.BaselineContext(ctx, a)
	if err != nil {
		return nil, 0, err
	}
	return res, base, nil
}

// checkEfficiency reports an efficiency outside (0, 1].
func checkEfficiency(what string, eff float64) error {
	if !(eff > 0 && eff <= 1) {
		return fmt.Errorf("%s: efficiency %v outside (0, 1]", what, eff)
	}
	return nil
}

// sameResult compares two results of one configuration run under
// different dispatch engines: everything but the dispatch mode must be
// identical.
func sameResult(a, b *machine.Result) bool {
	x, y := *a, *b
	x.Config.DispatchMode, y.Config.DispatchMode = 0, 0
	return reflect.DeepEqual(x, y)
}

// oracleCheck re-runs each sampled configuration with the interpreter
// and compares it with the default (compiled where eligible) engine;
// both runs verify the application's output and the efficiency must lie
// in (0, 1]. Every configuration counts as one operation.
func oracleCheck(ctx context.Context, e *env, sample []simConfig) error {
	for _, c := range sample {
		a, err := apps.New(c.App, app.Quick)
		if err != nil {
			return err
		}
		fast, base, err := libraryRun(ctx, a, c.Cfg, false)
		if err != nil {
			e.rec.op(fmt.Errorf("oracle %s: %w", c, err))
			continue
		}
		icfg := c.Cfg
		icfg.DispatchMode = machine.DispatchInterpreted
		slow, _, err := libraryRun(ctx, a, icfg, false)
		if err != nil {
			e.rec.op(fmt.Errorf("oracle %s interpreted: %w", c, err))
			continue
		}
		e.rec.op(nil)
		if !sameResult(fast, slow) {
			e.rec.checkFail("%s: compiled and interpreted results differ (cycles %d/%d, instrs %d/%d)",
				c, fast.Cycles, slow.Cycles, fast.Instrs, slow.Instrs)
		}
		if err := checkEfficiency(c.String(), fast.Efficiency(base)); err != nil {
			e.rec.checkFail("%v", err)
		}
	}
	return nil
}
