package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mtsim/internal/app"
	"mtsim/internal/apps"
	"mtsim/internal/cluster"
	"mtsim/internal/machine"
	"mtsim/internal/serve"
	"mtsim/internal/serve/client"
)

// The serve workloads play a seeded request script against mtsimd
// servers running in this process on loopback ports: one journaling
// server (serve-node) or a three-node journaling cluster with the
// daemon's default cluster settings (serve-fleet). Each round plays
// one pass of the script from e.jobs closed-loop client workers; a pass
// has a fixed make-up and the seed decides its order, the node each
// request goes to, the surface (/v1/run or /v2/jobs) and the memo-key
// salts.

var serveNode = &workload{
	name:    "serve-node",
	prepare: func(e *env) (any, error) { return nil, nil },
	setup: func(ctx context.Context, e *env, _ any) (instance, error) {
		return newServeBench(ctx, e, 1)
	},
	configs:    servedConfigs,
	setupReps:  7,
	heapRounds: 40,
}

var serveFleet = &workload{
	name:    "serve-fleet",
	prepare: func(e *env) (any, error) { return nil, nil },
	setup: func(ctx context.Context, e *env, _ any) (instance, error) {
		return newServeBench(ctx, e, 3)
	},
	configs:    servedConfigs,
	setupReps:  7,
	heapRounds: 40,
}

// runKind is one (application, configuration) the script requests.
type runKind struct {
	app string
	cfg serve.ConfigRequest
}

func (k runKind) machine() machine.Config {
	cfg, err := k.cfg.ToMachine()
	if err != nil {
		panic(fmt.Sprintf("benchmark configuration %s: %v", k.app, err))
	}
	return cfg
}

// popular is the script's popular set: every sync run that hits the
// memo asks for one of these, and the cold runs ask for the same ones
// under a fresh memo key. The repository holds no record of mtsimd
// traffic, so the set is the run configurations its documentation and
// CI send, taken verbatim at the quick scale.
var popular = []runKind{
	// README quickstart: /v1/run and the /v2/jobs sync run.
	{"sor", serve.ConfigRequest{Procs: 8, Threads: 6, Model: "explicit-switch"}},
	// README quickstart: the /v1/batch example's two jobs.
	{"sor", serve.ConfigRequest{Procs: 4, Threads: 4, Model: "switch-on-use"}},
	{"sieve", serve.ConfigRequest{Procs: 4, Threads: 4, Model: "switch-on-use"}},
	// CI smoke: /v1/run with metrics and the /v2 sync run.
	{"sor", serve.ConfigRequest{Procs: 4, Threads: 4, Model: "switch-on-miss", Latency: 100}},
	// CI crash-recovery smoke and EXPERIMENTS.md: the journaled batch.
	{"sieve", serve.ConfigRequest{Procs: 4, Threads: 2, Model: "switch-on-use"}},
	// EXPERIMENTS.md: a routed-topology run.
	{"spmv", serve.ConfigRequest{Procs: 8, Threads: 4, Model: "switch-on-load", Latency: 200,
		Topology: &serve.TopologyRequest{Kind: "fattree"}}},
}

// metricsKinds are requested cold with metrics: true (those runs always
// use the interpreter): the CI smoke's metrics run.
var metricsKinds = []int{3}

// asyncBatches are the async batch jobs; each entry indexes popular:
// the first job of the README's /v1/batch example, submitted with an
// Idempotency-Key as the README's /v2 example submits a batch. The
// example's second job (sieve, kind 2) is left out of the batch: it
// journals nine snapshots of about 700 KB each, so with it every pass
// wrote 6.8 MB of journal and a 20 s run about 1 GB, which nothing
// compacts; without it a job writes one checkpoint of about 70 KB.
var asyncBatches = [][]int{{1}}

// Per-pass make-up of the script: 24 memo hits, 6 plain and 1 metrics
// cold runs, 1 async job. The mix is assumed, not recorded; the counts
// were chosen so that every reported quantile falls inside one cluster
// of samples rather than on the gap between two, where it would jump
// from run to run. A memo hit's cost is mostly the request's apps.New
// (spmv < sor < sieve), so the hit median lies among the 12 sor hits
// and the hit p90 among the 8 sieve hits. A cold run's cost is its
// simulation; of the 7 cold runs the median is the 4th (sor 4x4
// switch-on-use) and the p90 lies among the two sieve runs.
const (
	hitsPerKind  = 4 // memo-hit sync runs per popular kind
	coldPerKind  = 1 // plain cold sync runs per popular kind
	metricsCold  = 1 // cold metrics runs per metrics kind
	asyncPerPass = 1 // async jobs per batch kind
)

// coldPerPass is the number of cold sync runs in one pass.
var coldPerPass = len(popular)*coldPerKind + len(metricsKinds)*metricsCold

func servedConfigs() []simConfig {
	out := make([]simConfig, len(popular))
	for i, k := range popular {
		out[i] = simConfig{k.app, k.machine()}
	}
	return out
}

// Operation types of the script.
const (
	opHit = iota
	opCold
	opMetrics
	opAsync
)

type scriptOp struct {
	typ   int
	kind  int // index into popular, or into asyncBatches for opAsync
	node  int
	v2    bool
	salt  int64
	salts []int64 // per batch job, opAsync
}

// reference is the in-process library result of one kind.
type reference struct {
	cycles, instrs, base int64
	eff                  float64
	metrics              []byte // metrics JSON (metrics kinds only)
}

type benchNode struct {
	id, url string
	dir     string
	s       *serve.Server
	hs      *http.Server
	done    chan struct{}
}

type serveBench struct {
	e     *env
	nodes []*benchNode
	// owner and metricsOwner index the nodes owning the plain and the
	// metrics session (the route key of every sync run).
	owner, metricsOwner int
	hc                  *http.Client
	sc                  []*client.Client

	// Expected response bytes per popular kind and surface, captured in
	// set-up from the owner: [kind][v2].
	want        [][2][]byte
	wantMetrics map[int][2][]byte
	wantBatch   [][]byte
	refs        []reference
	refMetrics  map[int]reference

	pass  int
	salt  atomic.Int64
	keyN  atomic.Int64
	start int64 // salt base, seeded

	// requests counts every HTTP request sent to the nodes; asyncJobs
	// counts completed async jobs.
	requests, asyncJobs atomic.Int64
}

func newServeBench(ctx context.Context, e *env, n int) (_ *serveBench, err error) {
	b := &serveBench{e: e}
	b.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.jobs, MaxConnsPerHost: e.jobs + 2}}
	ls := make([]net.Listener, n)
	defer func() {
		if err != nil {
			for _, l := range ls {
				if l != nil {
					l.Close()
				}
			}
			b.close()
		}
	}()
	var peers []cluster.Peer
	for i := range ls {
		if ls[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		peers = append(peers, cluster.Peer{ID: fmt.Sprintf("node%d", i+1), URL: "http://" + ls[i].Addr().String()})
	}
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	for i := range ls {
		nd := &benchNode{id: peers[i].ID, url: peers[i].URL, dir: filepath.Join(dir, peers[i].ID), done: make(chan struct{})}
		nd.s = serve.New(serve.Config{})
		b.nodes = append(b.nodes, nd)
		if err := os.MkdirAll(nd.dir, 0o755); err != nil {
			return nil, err
		}
		if _, err := nd.s.EnableJournal(filepath.Join(nd.dir, "wal")); err != nil {
			return nil, err
		}
		if n > 1 {
			if _, err := nd.s.EnableCluster(cluster.Config{Self: nd.id, Peers: peers}); err != nil {
				return nil, err
			}
		}
		nd.hs = &http.Server{Handler: nd.s.Handler()}
		go func(l net.Listener) {
			defer close(nd.done)
			_ = nd.hs.Serve(l)
		}(ls[i])
		c := client.New(nd.url)
		c.HTTPClient = b.hc
		c.MaxRetries = -1 // nothing is retried silently
		b.sc = append(b.sc, c)
	}
	if n > 1 {
		probe, err := cluster.New(cluster.Config{Self: peers[0].ID, Peers: peers})
		if err != nil {
			return nil, err
		}
		b.owner = indexOf(peers, probe.RouteOwner(cluster.SessionRouteKey(app.Quick.String())))
		b.metricsOwner = indexOf(peers, probe.RouteOwner(cluster.SessionRouteKey(app.Quick.String()+"+metrics")))
	}
	if err := b.waitReady(ctx, n); err != nil {
		return nil, err
	}
	if err := b.warm(ctx); err != nil {
		return nil, err
	}
	b.start = int64(e.rng("salt").Intn(1 << 20))
	return b, nil
}

func indexOf(peers []cluster.Peer, id string) int {
	for i, p := range peers {
		if p.ID == id {
			return i
		}
	}
	return 0
}

// healthDoc is the part of /v2/healthz the benchmark reads.
type healthDoc struct {
	CheckpointsWritten int64               `json:"checkpoints_written"`
	Tenants            []serve.TenantUsage `json:"tenants"`
	Cluster            *struct {
		Alive    int   `json:"alive"`
		Forwards int64 `json:"forwards"`
		Hedges   int64 `json:"hedges"`
	} `json:"cluster"`
}

func (b *serveBench) health(ctx context.Context, i int) (*healthDoc, error) {
	body, status, err := b.do(ctx, http.MethodGet, b.nodes[i].url+"/v2/healthz", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", status)
	}
	var h healthDoc
	return &h, json.Unmarshal(body, &h)
}

// waitReady waits until every node answers and, on a fleet, sees every
// peer alive.
func (b *serveBench) waitReady(ctx context.Context, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for i := range b.nodes {
		for {
			h, err := b.health(ctx, i)
			if err == nil && (n == 1 || (h.Cluster != nil && h.Cluster.Alive == n)) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node %s not ready: %v", b.nodes[i].id, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// do sends one request and reads the whole reply.
func (b *serveBench) do(ctx context.Context, method, url string, body []byte, hdr http.Header) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b.requests.Add(1)
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := b.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// salted returns k's configuration under memo-key salt (0 = none). A
// distinct cycle cap is a distinct memo key for the same simulated
// work: the run misses the memo and, since the cap is never reached,
// returns the same document as the unsalted one.
func salted(k runKind, salt int64) serve.ConfigRequest {
	cfg := k.cfg
	if salt != 0 {
		cfg.MaxCycles = 4<<30 + salt
	}
	return cfg
}

func runBody(k runKind, salt int64, metrics, v2 bool) []byte {
	rr := &serve.RunRequest{App: k.app, Scale: app.Quick.String(), Config: salted(k, salt), Metrics: metrics}
	var v any = rr
	if v2 {
		v = &serve.V2JobRequest{Run: rr}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return body
}

// syncRun sends one sync run to node i on the chosen surface.
func (b *serveBench) syncRun(ctx context.Context, i int, body []byte, v2 bool) ([]byte, error) {
	path := "/v1/run"
	if v2 {
		path = "/v2/jobs"
	}
	out, status, err := b.do(ctx, http.MethodPost, b.nodes[i].url+path, body, http.Header{"Content-Type": {"application/json"}})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s on %s: status %d: %s", path, b.nodes[i].id, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// warm is the last step of set-up: simulate the popular set once on
// its owner (so the timed phase finds it memoized, baselines included),
// warm the metrics session's baselines, and capture the bytes every
// later response must repeat.
func (b *serveBench) warm(ctx context.Context) error {
	b.want = make([][2][]byte, len(popular))
	for k, kind := range popular {
		for v, v2 := range []bool{false, true} {
			out, err := b.syncRun(ctx, b.owner, runBody(kind, 0, false, v2), v2)
			if err != nil {
				return err
			}
			b.want[k][v] = out
		}
	}
	b.wantMetrics = make(map[int][2][]byte)
	for _, k := range metricsKinds {
		var w [2][]byte
		for v, v2 := range []bool{false, true} {
			out, err := b.syncRun(ctx, b.metricsOwner, runBody(popular[k], 0, true, v2), v2)
			if err != nil {
				return err
			}
			w[v] = out
		}
		b.wantMetrics[k] = w
	}
	return nil
}

// references computes, apart from the serving layer, what every
// response must report: a library run of each kind in a fresh session,
// and the sync /v1/batch reply of each async batch.
func (b *serveBench) references(ctx context.Context) error {
	b.refs = make([]reference, len(popular))
	b.refMetrics = make(map[int]reference)
	for k, kind := range popular {
		a, err := apps.New(kind.app, app.Quick)
		if err != nil {
			return err
		}
		res, base, err := libraryRun(ctx, a, kind.machine(), false)
		if err != nil {
			return err
		}
		b.refs[k] = reference{res.Cycles, res.Instrs, base, res.Efficiency(base), nil}
	}
	for _, k := range metricsKinds {
		a, err := apps.New(popular[k].app, app.Quick)
		if err != nil {
			return err
		}
		res, base, err := libraryRun(ctx, a, popular[k].machine(), true)
		if err != nil {
			return err
		}
		mj, err := json.Marshal(res.Metrics)
		if err != nil {
			return err
		}
		b.refMetrics[k] = reference{res.Cycles, res.Instrs, base, res.Efficiency(base), mj}
	}
	b.wantBatch = make([][]byte, len(asyncBatches))
	for i := range asyncBatches {
		body, err := json.Marshal(b.batchRequest(i, nil))
		if err != nil {
			return err
		}
		out, status, err := b.do(ctx, http.MethodPost, b.nodes[b.owner].url+"/v1/batch", body, nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("sync /v1/batch reference: status %d", status)
		}
		b.wantBatch[i] = out
	}
	return nil
}

func (b *serveBench) batchRequest(i int, salts []int64) *serve.BatchRequest {
	req := &serve.BatchRequest{Scale: app.Quick.String()}
	for j, k := range asyncBatches[i] {
		var salt int64
		if salts != nil {
			salt = salts[j]
		}
		req.Jobs = append(req.Jobs, serve.BatchJob{App: popular[k].app, Config: salted(popular[k], salt)})
	}
	return req
}

// script builds one pass: its fixed make-up in a seeded order, each
// request to a seeded node on a seeded surface.
func (b *serveBench) script(r *rand.Rand) []scriptOp {
	var ops []scriptOp
	for k := range popular {
		for i := 0; i < hitsPerKind; i++ {
			ops = append(ops, scriptOp{typ: opHit, kind: k})
		}
		for i := 0; i < coldPerKind; i++ {
			ops = append(ops, scriptOp{typ: opCold, kind: k})
		}
	}
	for _, k := range metricsKinds {
		for i := 0; i < metricsCold; i++ {
			ops = append(ops, scriptOp{typ: opMetrics, kind: k})
		}
	}
	for k := range asyncBatches {
		for i := 0; i < asyncPerPass; i++ {
			ops = append(ops, scriptOp{typ: opAsync, kind: k})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].node = r.Intn(len(b.nodes))
		ops[i].v2 = r.Intn(2) == 1
		switch ops[i].typ {
		case opCold, opMetrics:
			ops[i].salt = b.nextSalt()
		case opAsync:
			for range asyncBatches[ops[i].kind] {
				ops[i].salts = append(ops[i].salts, b.nextSalt())
			}
		}
	}
	return ops
}

func (b *serveBench) nextSalt() int64 { return b.start + b.salt.Add(1) }

func (b *serveBench) round(ctx context.Context) error {
	b.pass++
	ops := b.script(b.e.rng(fmt.Sprintf("pass-%d", b.pass)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.e.jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				b.exec(ctx, ops[i])
			}
		}()
	}
	wg.Wait()
	return nil
}

// exec runs one operation and checks its output.
func (b *serveBench) exec(ctx context.Context, op scriptOp) {
	rec, tr := b.e.rec, b.e.tr
	if op.typ == opAsync {
		b.execAsync(ctx, op)
		return
	}
	metrics := op.typ == opMetrics
	body := runBody(popular[op.kind], op.salt, metrics, op.v2)
	owner := b.owner
	if metrics {
		owner = b.metricsOwner
	}
	name := "serve.request/hit"
	switch {
	case op.typ == opCold:
		name = "serve.request/cold"
	case metrics:
		name = "serve.request/cold-metrics"
	}
	if op.typ == opHit && len(b.nodes) > 1 {
		if op.node == owner {
			name += "/owner"
		} else {
			name += "/forwarded"
		}
	}
	sp := tr.Start(0, name)
	t0 := time.Now()
	out, err := b.syncRun(ctx, op.node, body, op.v2)
	d := time.Since(t0)
	sp.End()
	rec.op(err)
	if err != nil {
		return
	}
	class := classHit
	if op.typ != opHit {
		class = classCold
	}
	rec.sample(class, ms(d))

	v := 0
	if op.v2 {
		v = 1
	}
	want, ref := b.want[op.kind][v], b.refs[op.kind]
	if metrics {
		want, ref = b.wantMetrics[op.kind][v], b.refMetrics[op.kind]
	}
	instrs, err := checkServed(out, want, op.v2, ref)
	if err != nil {
		rec.checkFail("%s %s via %s: %v", name, popular[op.kind].app, b.nodes[op.node].id, err)
		return
	}
	if op.typ != opHit {
		rec.addInstrs(instrs)
	}
}

// checkServed checks one sync run reply: its bytes must equal the
// owner's set-up reply for the same kind and surface (so a memo hit
// repeats the cold reply, and every fleet node answers with the
// owner's bytes), and its figures must equal the library reference.
// It returns the reply's simulated instructions.
func checkServed(out, want []byte, v2 bool, ref reference) (int64, error) {
	if !bytes.Equal(out, want) {
		return 0, errors.New("response bytes differ from the owner's set-up response")
	}
	rr, err := decodeRun(out, v2)
	if err != nil {
		return 0, err
	}
	if err := checkRun(rr, ref); err != nil {
		return 0, err
	}
	return rr.Instrs, nil
}

func decodeRun(body []byte, v2 bool) (*serve.RunResponse, error) {
	if v2 {
		var job serve.V2Job
		if err := json.Unmarshal(body, &job); err != nil {
			return nil, err
		}
		body = job.Result
	}
	var rr serve.RunResponse
	return &rr, json.Unmarshal(body, &rr)
}

// checkRun compares a served run with its library reference.
func checkRun(rr *serve.RunResponse, ref reference) error {
	if rr.Cycles != ref.cycles || rr.Instrs != ref.instrs || rr.BaselineCycles != ref.base || rr.Efficiency != ref.eff {
		return fmt.Errorf("served cycles/instrs/baseline/efficiency %d/%d/%d/%v, library %d/%d/%d/%v",
			rr.Cycles, rr.Instrs, rr.BaselineCycles, rr.Efficiency, ref.cycles, ref.instrs, ref.base, ref.eff)
	}
	if err := checkEfficiency("served run", rr.Efficiency); err != nil {
		return err
	}
	if ref.metrics != nil {
		mj, err := json.Marshal(rr.Metrics)
		if err != nil {
			return err
		}
		if !bytes.Equal(mj, ref.metrics) {
			return errors.New("served metrics differ from the library run's")
		}
	}
	return nil
}

// execAsync submits one journaled async batch, times it to its SSE
// done event, then checks its result against the sync batch reply.
func (b *serveBench) execAsync(ctx context.Context, op scriptOp) {
	rec, tr := b.e.rec, b.e.tr
	key := fmt.Sprintf("bench-%d-%d-%d", b.e.seed, b.start, b.keyN.Add(1))
	body, err := json.Marshal(&serve.V2JobRequest{Batch: b.batchRequest(op.kind, op.salts)})
	if err != nil {
		panic(err)
	}
	sp := tr.Start(0, "serve.async")
	ssp := tr.Start(sp.ID(), "serve.async/submit")
	out, status, err := b.do(ctx, http.MethodPost, b.nodes[op.node].url+"/v2/jobs", body,
		http.Header{"Idempotency-Key": {key}, "Content-Type": {"application/json"}})
	ssp.End()
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("async submit via %s: status %d: %s", b.nodes[op.node].id, status, bytes.TrimSpace(out))
	}
	var job serve.V2Job
	if err == nil {
		err = json.Unmarshal(out, &job)
	}
	if err == nil {
		esp := tr.Start(sp.ID(), "serve.async/events")
		b.requests.Add(1)
		err = b.sc[op.node].StreamEvents(ctx, job.JobID, "", func(client.Event) error { return nil })
		esp.End()
		if errors.Is(err, client.ErrStreamEnded) {
			err = nil
		}
	}
	sp.End()
	if err != nil {
		rec.op(err)
		return
	}
	// The v1 job resource serves the done job's result document
	// verbatim (the v2 resource re-indents it inside its envelope).
	res, status, err := b.do(ctx, http.MethodGet, b.nodes[op.node].url+"/v1/batch/jobs/"+job.JobID, nil, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET job via %s: status %d", b.nodes[op.node].id, status)
	}
	rec.op(err)
	if err != nil {
		return
	}
	instrs, err := checkAsync(res, b.wantBatch[op.kind])
	if err != nil {
		rec.checkFail("async job %s: %v", job.JobID, err)
		return
	}
	rec.addInstrs(instrs)
	b.asyncJobs.Add(1)
}

// checkAsync checks an async job's result document against the sync
// /v1/batch reply of the same batch and returns the simulated
// instructions of its jobs.
func checkAsync(res, want []byte) (int64, error) {
	if !bytes.Equal(res, want) {
		return 0, errors.New("result differs from the sync /v1/batch reply of the same batch")
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(res, &br); err != nil {
		return 0, err
	}
	var n int64
	for i, r := range br.Results {
		if r == nil {
			return 0, fmt.Errorf("job %d failed: %s", i, br.Errors[i])
		}
		if err := checkEfficiency("async job", r.Efficiency); err != nil {
			return 0, err
		}
		n += r.Instrs
	}
	return n, nil
}

// finish reads the servers' counters and the journal size, and re-runs
// a sample of the served configurations under the interpreter.
func (b *serveBench) finish(ctx context.Context) error {
	tr := b.e.tr
	var ckpts, fwd, hedges int64
	var queueMS, jobs int64
	for i := range b.nodes {
		h, err := b.health(ctx, i)
		if err != nil {
			return err
		}
		ckpts += h.CheckpointsWritten
		if h.Cluster != nil {
			fwd += h.Cluster.Forwards
			hedges += h.Cluster.Hedges
		}
		if i == b.owner {
			// The owner's table merges the peers' gossiped usage.
			for _, u := range h.Tenants {
				queueMS += u.QueueMS
				jobs += u.Jobs
			}
		}
	}
	var journal int64
	for _, nd := range b.nodes {
		if st, err := os.Stat(filepath.Join(nd.dir, "wal")); err == nil {
			journal += st.Size()
		}
	}
	tr.Count("serve.checkpoints", float64(ckpts))
	tr.Count("serve.async_jobs", float64(b.asyncJobs.Load()))
	tr.Count("serve.queue_ms", float64(queueMS))
	tr.Count("serve.jobs", float64(jobs))
	tr.Count("serve.journal_bytes", float64(journal))
	tr.Count("cluster.forwards", float64(fwd))
	tr.Count("cluster.hedges", float64(hedges))
	tr.Count("cluster.requests", float64(b.requests.Load()))
	return oracleCheck(ctx, b.e, sampleConfigs(b.e.rng("oracle"), servedConfigs(), oracleSamples))
}

// close stops the HTTP servers, then drains each mtsimd server (which
// stops its cluster node and dispatcher and closes its journal).
func (b *serveBench) close() {
	for _, nd := range b.nodes {
		if nd.hs != nil {
			_ = nd.hs.Close()
			<-nd.done
		}
	}
	for _, nd := range b.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = nd.s.Shutdown(ctx)
		cancel()
	}
	b.hc.CloseIdleConnections()
	b.nodes = nil
}
