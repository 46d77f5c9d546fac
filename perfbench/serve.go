package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/canon"
	"repro/internal/kernels"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/x64"
	"repro/stoke"
)

// serve-mixed: two closed-loop clients post a seeded request stream over
// the register-only (gcc -O3 style) forms of p01–p18 to an in-process
// server behind a loopback listener, backed by a file store in a fresh
// temporary directory per pass.
const (
	serveClients = 2
	serveMixed   = 1260 // requests after every kernel's first submission
	serveNear    = 6    // near misses per kernel with an immediate, per pass
)

// serveBudgets are the per-job search budgets.
var serveBudgets = server.Budgets{SynthChains: 1, OptChains: 1,
	SynthProposals: 5000, OptProposals: 10000, Ell: 12, Tests: 16}

// request is one generated submission.
type request struct {
	kind   string // "cold", "rename" or "near"
	bench  kernels.Bench
	perm   perm
	kernel stoke.Kernel // as the server builds it, for the output check
	body   []byte
}

// serveStream generates a pass's requests from the seed: each kernel's
// first submission in a seeded order, then renamed resubmissions (exact
// hits) with serveNear constant changes (near misses) per kernel that has
// an immediate mixed in at seeded positions. Every request is renamed
// afresh. Each near miss has a store key no earlier request has, so it is
// a miss in the store and matches no job in flight.
func serveStream(seed int64, benches []kernels.Bench) (cold, mixed []*request, err error) {
	rng := rand.New(rand.NewSource(seed))
	n := 0
	keys := map[string]bool{} // store keys of the cold and near requests
	mk := func(kind string, b kernels.Bench, prog *x64.Program, pm perm) (*request, error) {
		n++
		spec := server.KernelSpec{Name: fmt.Sprintf("%s-%d", b.Name, n), Target: prog.String()}
		var args []x64.Reg
		for _, r := range hdArgRegs[:b.Params] {
			args = append(args, pm[r])
			spec.Inputs32 = append(spec.Inputs32, x64.GPRName(pm[r], 4))
		}
		spec.Outputs32 = []string{x64.GPRName(pm[x64.RAX], 4)}
		budgets := serveBudgets
		budgets.Seed = seed*1_000_003 + int64(n)
		body, err := json.Marshal(server.SubmitRequest{Kernel: spec, Budgets: budgets})
		if err != nil {
			return nil, err
		}
		k := stoke.NewKernel(spec.Name, prog, stoke.WithInputs32(args...), stoke.WithOutput32(pm[x64.RAX]))
		return &request{kind: kind, bench: b, perm: pm, kernel: k, body: body}, nil
	}
	for _, i := range rng.Perm(len(benches)) {
		r, err := mk("cold", benches[i], benches[i].GccO3, identity())
		if err != nil {
			return nil, nil, err
		}
		keys[storeKey(r.kernel)] = true
		cold = append(cold, r)
	}
	var near []int // kernel index of each near miss
	for i, b := range benches {
		if len(immediates(b.GccO3)) > 0 {
			for j := 0; j < serveNear; j++ {
				near = append(near, i)
			}
		}
	}
	isNear := map[int]int{} // mixed position → kernel index
	for j, pos := range rng.Perm(serveMixed)[:len(near)] {
		isNear[pos] = near[j]
	}
	for pos := 0; pos < serveMixed; pos++ {
		var r *request
		if i, ok := isNear[pos]; ok {
			b := benches[i]
			for try := 0; ; try++ {
				if try == 100 {
					return nil, nil, fmt.Errorf("%s: no new constant change in %d draws", b.Name, try)
				}
				prog := b.GccO3.Clone()
				imms := immediates(prog)
				imms[rng.Intn(len(imms))].Imm = int64(1 + rng.Intn(30))
				pm := randomPerm(prog, rng)
				if r, err = mk("near", b, renameProgram(prog, pm), pm); err != nil {
					return nil, nil, err
				}
				if key := storeKey(r.kernel); !keys[key] {
					keys[key] = true
					break
				}
			}
		} else {
			b := benches[rng.Intn(len(benches))]
			pm := randomPerm(b.GccO3, rng)
			r, err = mk("rename", b, renameProgram(b.GccO3, pm), pm)
		}
		if err != nil {
			return nil, nil, err
		}
		mixed = append(mixed, r)
	}
	return cold, mixed, nil
}

// storeKey is the content address k occupies in the rewrite store, which
// is also the server's in-flight identity of a submission.
func storeKey(k stoke.Kernel) string {
	form := canon.Canonicalize(k.Target, liveOf(k))
	return store.Key(form.FP.Hex(), form.Consts)
}

// immediates lists the immediate operands of p.
func immediates(p *x64.Program) []*x64.Operand {
	var out []*x64.Operand
	for i := range p.Insts {
		in := &p.Insts[i]
		for j := 0; j < int(in.N); j++ {
			if in.Opd[j].Kind == x64.KindImm {
				out = append(out, &in.Opd[j])
			}
		}
	}
	return out
}

// serveEnv is one pass's service: engine, file store, job server and
// loopback HTTP listener.
type serveEnv struct {
	cold    []*request
	mixed   []*request
	dir     string
	logPath string
	eng     *stoke.Engine
	st      *store.Store
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	url     string
	client  *http.Client
}

func serveSetup(seed int64, workers int) (*serveEnv, error) {
	benches, err := benchesNamed(hdSearch.kernels)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{}
	if env.cold, env.mixed, err = serveStream(seed, benches); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	if env.dir, err = os.MkdirTemp(".bench_build", "serve-"); err != nil {
		return nil, err
	}
	env.logPath = filepath.Join(env.dir, "rewrites.jsonl")
	if env.st, err = store.Open(env.logPath, 0); err != nil {
		os.RemoveAll(env.dir)
		return nil, err
	}
	env.eng = stoke.NewEngine(stoke.EngineConfig{Workers: workers})
	env.srv = server.New(server.Config{Engine: env.eng, Store: env.st, Workers: serveClients})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.eng.Close()
		os.RemoveAll(env.dir)
		return nil, err
	}
	env.url = "http://" + ln.Addr().String()
	env.httpSrv = &http.Server{Handler: env.srv.Handler()}
	env.served = make(chan error, 1)
	go func() { env.served <- env.httpSrv.Serve(ln) }()
	env.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	return env, nil
}

// close stops the listener, the job server and the engine, waits for
// them, and removes the store's directory.
func (env *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	env.client.CloseIdleConnections()
	_ = env.httpSrv.Shutdown(ctx) // idle loopback connections only
	<-env.served
	_ = env.srv.Shutdown(ctx)
	env.eng.Close()
	os.RemoveAll(env.dir) // the store keeps its entries in memory
}

// serveAnswer is one request's outcome as the client saw it.
type serveAnswer struct {
	req  *request
	hit  bool
	lat  time.Duration // POST to response for a hit, submit to done otherwise
	view server.JobView
	err  error
}

// wireEvent mirrors the fields of the server's SSE event payload that the
// trace reads.
type wireEvent struct {
	Kind      string `json:"kind"`
	Kernel    string `json:"kernel"`
	Phase     string `json:"phase"`
	Round     int    `json:"round"`
	Verdict   string `json:"verdict"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// submit posts one request and, unless the store answered it at once,
// follows the job's event stream to its end.
func (env *serveEnv) submit(req *request, tenant string, tr *tracer) serveAnswer {
	ans := serveAnswer{req: req}
	t0 := time.Now()
	hreq, err := http.NewRequest(http.MethodPost, env.url+"/v1/jobs", bytes.NewReader(req.body))
	if err != nil {
		ans.err = err
		return ans
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Tenant", tenant)
	resp, err := env.client.Do(hreq)
	if err != nil {
		ans.err = err
		return ans
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		ans.err = err
		return ans
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		ans.err = fmt.Errorf("http-%d", resp.StatusCode)
		return ans
	}
	if err := json.Unmarshal(body, &ans.view); err != nil {
		ans.err = err
		return ans
	}
	if resp.StatusCode == http.StatusOK {
		ans.hit = true
		ans.lat = time.Since(t0)
		if tr != nil {
			tr.call(req.bench.Name+" hit", t0)
		}
		return ans
	}
	call := -1
	if tr != nil {
		call = tr.reserve(req.bench.Name)
	}
	ans.view, ans.err = env.follow(ans.view.ID, tr, call)
	ans.lat = time.Since(t0)
	if tr != nil {
		tr.finish(call)
	}
	return ans
}

// follow reads a job's SSE stream until its terminal view.
func (env *serveEnv) follow(id string, tr *tracer, call int) (server.JobView, error) {
	var view server.JobView
	resp, err := env.client.Get(env.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return view, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return view, fmt.Errorf("http-%d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			if event == "done" {
				return view, json.Unmarshal(data, &view)
			}
			if tr != nil {
				var ev wireEvent
				if err := json.Unmarshal(data, &ev); err != nil {
					return view, err
				}
				tr.event(call, ev.Kind, ev.Kernel, ev.Phase, ev.Round, ev.Verdict,
					time.Duration(ev.ElapsedMS)*time.Millisecond)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return view, err
	}
	return view, errors.New("event stream ended before the job was done")
}

type servePass struct {
	st      *store.Store
	wall    time.Duration
	answers []serveAnswer
	tr      *tracer
	stats   store.Stats
	logSize int64
}

// pass runs the cold phase, then the mixed phase, each with every client
// taking the next request as soon as its previous one is answered.
func (env *serveEnv) pass(tr *tracer) *servePass {
	p := &servePass{st: env.st, tr: tr}
	var mu sync.Mutex
	phase := func(reqs []*request) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(len(reqs)) {
						return
					}
					ans := env.submit(reqs[i], tenant, tr)
					mu.Lock()
					p.answers = append(p.answers, ans)
					mu.Unlock()
				}
			}(fmt.Sprintf("client-%d", c))
		}
		wg.Wait()
	}
	start := time.Now()
	phase(env.cold)
	phase(env.mixed)
	p.wall = time.Since(start)
	p.stats = env.st.Stats()
	if fi, err := os.Stat(env.logPath); err == nil {
		p.logSize = fi.Size()
	}
	return p
}

// check runs the output check on every proven answer and tallies the
// rest by reason.
func (p *servePass) check(seed int64, reasons failures) (proven, failed int) {
	rng := rand.New(rand.NewSource(seed ^ 0x636865636b))
	for _, a := range p.answers {
		why := ""
		switch {
		case a.err != nil:
			why = "http-error"
			if strings.HasPrefix(a.err.Error(), "http-") {
				why = a.err.Error()
			}
		case a.view.Status != "done" || a.view.Result == nil:
			why = "job-" + a.view.Status
		case a.view.Result.Partial:
			why = "partial"
		case a.view.Result.Verdict != "equal":
			why = a.view.Result.Verdict
		}
		if why == "" {
			if err := a.checkOutput(rng); err != nil {
				fmt.Fprintf(os.Stderr, "output check: %s request %s answered by job %s for %s (attached %d): %v\ntarget:\n%srewrite:\n%s",
					a.req.kind, a.req.kernel.Name, a.view.ID, a.view.Result.Kernel, a.view.Attached, err, a.req.kernel.Target, a.view.Result.Rewrite)
				why = "output-mismatch"
			}
		}
		switch why {
		case "":
			proven++
		case "unknown", "unsupported", "partial":
			reasons[why+"("+a.req.bench.Name+")"]++
		default:
			reasons[why+"("+a.req.bench.Name+")"]++
			failed++
		}
	}
	return proven, failed
}

func (a *serveAnswer) checkOutput(rng *rand.Rand) error {
	rewrite, err := stoke.Parse(a.view.Result.Rewrite)
	if err != nil {
		return fmt.Errorf("%s: rewrite does not parse: %w", a.req.kernel.Name, err)
	}
	if a.req.kind == "near" {
		return checkVsTarget(a.req.kernel, rewrite, rng)
	}
	return checkHD(a.req.bench, a.req.kernel.Spec, a.req.perm, rewrite, rng)
}

func runServe(cfg config) (*result, error) {
	// The engine's workers hold every core while a search runs. One more
	// scheduler slot lets the HTTP front end run beside them, so that a hit
	// waits on the hit path and the OS scheduler, not for the Go runtime to
	// preempt a search goroutine after 10 ms.
	runtime.GOMAXPROCS(cfg.workers + 1)
	var smp samples
	newEnv := func(seed int64) (*serveEnv, error) {
		return timeSetup(&smp, func() (*serveEnv, error) { return serveSetup(seed, cfg.workers) })
	}
	for i := 0; i < extraSetups; i++ {
		env, err := newEnv(cfg.seed)
		if err != nil {
			return nil, err
		}
		env.close()
	}

	// Each pass is checked and folded into the samples as soon as it ends,
	// so memory does not grow with the number of passes; traced runs keep
	// their passes for the per-layer figures.
	//
	// Untraced passes each post the stream of their own seed, derived from
	// the run's, so that a run's medians span several streams and one
	// stream's searches do not set them. Traced passes repeat the run's
	// stream, so that the trace overhead compares like with like.
	res := &result{}
	reasons := failures{}
	var passes []*servePass
	var speedups []float64
	err := loop(cfg, func(i int) error {
		seed := cfg.seed
		if !cfg.traced {
			seed += int64(i) * 0x9e3779b9
		}
		env, err := newEnv(seed)
		if err != nil {
			return err
		}
		var tr *tracer
		if cfg.traced && i > 0 {
			tr = newTracer()
		}
		p := env.pass(tr)
		env.close()
		proven, failed := p.check(seed, reasons)
		smp.proven += proven
		smp.answers += len(p.answers)
		res.Failed += failed
		for _, a := range p.answers {
			switch {
			case a.err != nil:
			case a.hit:
				smp.hitLat = append(smp.hitLat, a.lat.Seconds()*1e3)
			default:
				smp.ttvrs = append(smp.ttvrs, a.lat.Seconds())
			}
		}
		smp.walls = append(smp.walls, p.wall.Seconds())
		speedups = append(speedups, p.speedupGeomean())
		if cfg.traced {
			passes = append(passes, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	smp.speedup = median(speedups)
	res.Attempted = smp.answers
	res.Correct = res.Failed == 0
	fmt.Printf("serve-mixed seed=%d passes=%d answers=%d unproven/failed by reason: %v\n",
		cfg.seed, len(smp.walls), smp.answers, reasons)
	if !cfg.traced {
		res.Metrics = smp.metrics()
		return res, nil
	}
	res.Metrics, err = serveLayers(cfg, passes)
	return res, err
}

// speedupGeomean is the geomean of the modelled speedups over every
// answer, an unproven one counting as 1.0x.
func (p *servePass) speedupGeomean() float64 {
	logs := 0.0
	for _, a := range p.answers {
		if a.err == nil && a.view.Result != nil && a.view.Result.Verdict == "equal" && !a.view.Result.Partial {
			logs += math.Log(a.view.Result.Speedup)
		}
	}
	return math.Exp(logs / float64(len(p.answers)))
}

// serveLayers derives the per-layer figures of serve-mixed. The job API
// returns results, not engine reports, so busy seconds come from the
// phase spans of each job's event stream, and the proof figures from a
// second proof of each proven job answer.
func serveLayers(cfg config, passes []*servePass) (map[string]metric, error) {
	var sets []layerSet
	var tracedWalls []float64
	for i, p := range passes[1:] {
		ls := layerSet{}
		var serve float64
		var hitLat []float64
		for _, a := range p.answers {
			switch {
			case a.err != nil:
				ls["serve.rejected"]++
			case a.hit:
				serve += a.lat.Seconds()
				hitLat = append(hitLat, a.lat.Seconds()*1e3)
			case a.view.Result != nil:
				ls["mcmc.proposals"] += float64(a.view.Result.Proposals)
				ls["verify.refinements"] += float64(a.view.Result.Refinements)
				if a.view.Result.Verdict == "unsupported" {
					ls["verify.unsupported"]++
				}
			}
		}
		search := p.tr.phases["synthesis"] + p.tr.phases["optimization"]
		verify := p.tr.phases["validation"]
		ls.busy(search, verify, serve)
		ls.phases(p.tr)
		ls["mcmc.proposals_per_busy_s"] = ratio(ls["mcmc.proposals"], search)
		ls["search.swaps"] = float64(p.tr.counts["swap"])
		ls["search.prunes"] = float64(p.tr.counts["prune"])
		ls["verify.replay_kills"] = float64(p.tr.counts["replay-kill"])
		ls["verify.gate_deferrals"] = float64(p.tr.counts["gate-defer"])
		ls["verify.model_mismatches"] = float64(p.tr.counts["model-mismatch"])
		ls["engine.pool_util"] = ratio(search+verify, p.wall.Seconds()*float64(cfg.workers))
		ls["store.hits"], ls["store.misses"] = float64(p.stats.Hits), float64(p.stats.Misses)
		ls["store.log_bytes"] = float64(p.logSize)
		ls["serve.hit_frac"] = ratio(float64(len(hitLat)), float64(len(p.answers)))
		ls["serve.hit_p95_ms"] = quantile(hitLat, 0.95)
		ls["serve.hit_p99_ms"] = blockP99(hitLat)
		sets = append(sets, ls)
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		if err := p.tr.write(traceDir, fmt.Sprintf("serve-mixed-seed%d-pass%d.json", cfg.seed, i+1)); err != nil {
			return nil, err
		}
	}

	last := passes[len(passes)-1]
	var ks []stoke.Kernel
	seen := map[string]bool{}
	var proven []provenAnswer
	for _, a := range last.answers {
		if a.err != nil || a.hit || a.view.Result == nil || a.view.Result.Verdict != "equal" {
			continue
		}
		rewrite, err := stoke.Parse(a.view.Result.Rewrite)
		if err != nil {
			return nil, err
		}
		proven = append(proven, provenAnswer{a.req.kernel, rewrite})
		if !seen[a.req.bench.Name] {
			seen[a.req.bench.Name] = true
			ks = append(ks, a.req.kernel)
		}
	}
	probes, err := probeLayers(cfg.seed, ks, serveBudgets.Tests, proven, last.st)
	if err != nil {
		return nil, err
	}
	delete(probes, "store.log_bytes") // the pass's own log is reported instead
	probes["verify.proof_p50_ms"] = probes["verify.reproof_ms"]
	probes["verify.proof_max_ms"] = probes["reproof_max_ms"]
	probes["verify.clauses_p50"] = probes["verify.reproof_clauses"]
	probes["trace.overhead_s"] = median(tracedWalls) - passes[0].wall.Seconds()
	return report(sets, probes), nil
}
