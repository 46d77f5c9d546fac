package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/canon"
	"repro/internal/cost"
	"repro/internal/store"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/stoke"
)

// traceDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const traceDir = ".bench_build/trace"

// units of every per-layer metric.
var layerUnits = map[string]string{
	"search.busy_s": "s", "search.share": "fraction",
	"verify.busy_s": "s", "verify.share": "fraction",
	"serve.busy_s": "s", "serve.share": "fraction",
	"mcmc.proposals": "count", "mcmc.proposals_per_busy_s": "1/s", "mcmc.accept_rate": "fraction",
	"cost.tests_per_proposal": "count", "emu.reg_free_frac": "fraction",
	"search.swaps": "count", "search.prunes": "count",
	"cost.eval_ns_per_test": "ns", "testgen.generate_ms": "ms",
	"verify.sat_calls": "count", "verify.replay_kills": "count", "verify.gate_deferrals": "count",
	"verify.refinements": "count", "verify.proof_p50_ms": "ms", "verify.proof_max_ms": "ms",
	"verify.clauses_p50": "count", "verify.conclusive_frac": "fraction",
	"verify.reproof_ms": "ms", "verify.reproof_clauses": "count",
	"verify.model_mismatches": "count", "verify.unsupported": "count",
	"canon.canonicalize_us": "us", "store.get_us": "us", "store.put_us": "us",
	"store.hits": "count", "store.misses": "count", "store.log_bytes": "bytes",
	"serve.rejected": "count", "serve.hit_frac": "fraction",
	"serve.hit_p95_ms": "ms", "serve.hit_p99_ms": "ms",
	"phase.synthesis_s": "s", "phase.optimization_s": "s", "phase.validation_s": "s",
	"engine.pool_util": "fraction", "trace.overhead_s": "s",
}

// layerSet collects one traced pass's figures; the run reports each
// figure's median over its traced passes.
type layerSet map[string]float64

// busy fills the three layers' busy seconds and their shares of the sum.
func (ls layerSet) busy(search, verify, serve float64) {
	total := search + verify + serve
	ls["search.busy_s"], ls["search.share"] = search, ratio(search, total)
	ls["verify.busy_s"], ls["verify.share"] = verify, ratio(verify, total)
	ls["serve.busy_s"], ls["serve.share"] = serve, ratio(serve, total)
}

func (ls layerSet) phases(tr *tracer) {
	ls["phase.synthesis_s"] = tr.phases["synthesis"]
	ls["phase.optimization_s"] = tr.phases["optimization"]
	ls["phase.validation_s"] = tr.phases["validation"]
	ls["verify.conclusive_frac"] = tr.conclusiveFrac()
}

// report takes the median of every figure over the traced passes, adds
// the probes, prints each layer's share next to its seconds and returns
// the metrics.
func report(sets []layerSet, probes layerSet) map[string]metric {
	out := map[string]metric{}
	for name, unit := range layerUnits {
		var xs []float64
		for _, ls := range sets {
			if v, ok := ls[name]; ok {
				xs = append(xs, v)
			}
		}
		v := median(xs)
		if pv, ok := probes[name]; ok {
			v = pv
		}
		out[name] = metric{v, unit}
	}
	for _, l := range []string{"search", "verify", "serve"} {
		fmt.Printf("layer %-6s busy %9.3fs  share %5.1f%%\n", l,
			out[l+".busy_s"].Value, 100*out[l+".share"].Value)
	}
	fmt.Printf("trace overhead: traced wall_s - untraced wall_s = %+.3fs\n", out["trace.overhead_s"].Value)
	return out
}

// engineLayers derives the per-layer figures of the engine workloads from
// the reports, the traced passes' spans and timed calls into each layer.
func engineLayers(cfg config, ws engineSpec, passes []*enginePass) (map[string]metric, error) {
	var sets []layerSet
	var tracedWalls []float64
	for i, p := range passes[1:] {
		ls := layerSet{}
		var search, verify, serve float64
		var proposals, accepts, testsEvaluated, regFree, regWriting int64
		var proofTimes, clauses []float64
		for _, a := range p.searches {
			r := a.rep
			search += (r.SynthTime + r.OptTime).Seconds()
			verify += r.VerifyTime.Seconds()
			proposals += r.Stats.Proposals
			accepts += r.Stats.Accepts
			testsEvaluated += r.Stats.TestsEvaluated
			regFree += r.Stats.RegFreeSlots
			regWriting += r.Stats.RegWritingSlots
			ls["search.swaps"] += float64(r.Swaps)
			ls["search.prunes"] += float64(r.Prunes)
			ls["verify.sat_calls"] += float64(r.Proofs.SATCalls)
			ls["verify.replay_kills"] += float64(r.Proofs.ReplayKills)
			ls["verify.gate_deferrals"] += float64(r.Proofs.GateDeferrals)
			ls["verify.refinements"] += float64(r.Refinements)
			ls["verify.model_mismatches"] += float64(r.Proofs.ModelMismatches)
			if outcome(r) == "unsupported" {
				ls["verify.unsupported"]++
			}
			for _, t := range r.Proofs.Times {
				proofTimes = append(proofTimes, t.Seconds()*1e3)
			}
			for _, c := range r.Proofs.Clauses {
				clauses = append(clauses, float64(c))
			}
		}
		var hitLat []float64
		for _, h := range p.hits {
			if h.timed {
				serve += h.lat.Seconds()
				hitLat = append(hitLat, h.lat.Seconds()*1e3)
			}
		}
		ls["serve.hit_p95_ms"] = quantile(hitLat, 0.95)
		ls["serve.hit_p99_ms"] = blockP99(hitLat)
		ls.busy(search, verify, serve)
		ls.phases(p.tr)
		ls["mcmc.proposals"] = float64(proposals)
		ls["mcmc.proposals_per_busy_s"] = ratio(float64(proposals), search)
		ls["mcmc.accept_rate"] = ratio(float64(accepts), float64(proposals))
		ls["cost.tests_per_proposal"] = ratio(float64(testsEvaluated), float64(proposals))
		ls["emu.reg_free_frac"] = ratio(float64(regFree), float64(regWriting))
		ls["verify.proof_p50_ms"] = median(proofTimes)
		ls["verify.proof_max_ms"] = quantile(proofTimes, 1)
		ls["verify.clauses_p50"] = median(clauses)
		ls["engine.pool_util"] = ratio(search+verify, p.wall.Seconds()*float64(cfg.workers))
		st := p.env.st.Stats()
		ls["store.hits"], ls["store.misses"] = float64(st.Hits), float64(st.Misses)
		ls["serve.hit_frac"] = ratio(float64(len(p.hits)), float64(len(p.hits)+len(p.searches)))
		sets = append(sets, ls)
		tracedWalls = append(tracedWalls, p.wall.Seconds())
		if err := p.tr.write(traceDir, fmt.Sprintf("%s-seed%d-pass%d.json", ws.name, cfg.seed, i+1)); err != nil {
			return nil, err
		}
	}

	last := passes[len(passes)-1]
	var ks []stoke.Kernel
	var proven []provenAnswer
	for _, a := range last.searches {
		ks = append(ks, a.bench.Kernel)
		if outcome(a.rep) == "" {
			proven = append(proven, provenAnswer{a.bench.Kernel, a.rep.Rewrite})
		}
	}
	probes, err := probeLayers(cfg.seed, ks, ws.tests, proven, last.env.st)
	if err != nil {
		return nil, err
	}
	probes["trace.overhead_s"] = median(tracedWalls) - passes[0].wall.Seconds()
	return report(sets, probes), nil
}

// provenAnswer is a kernel and its proven rewrite.
type provenAnswer struct {
	k       stoke.Kernel
	rewrite *stoke.Program
}

// probeLayers times calls into each layer's public functions over the
// workload's kernels: testcase generation, compiled evaluation of the
// target over its τ, canonicalisation, store reads of the proven entries
// in st and appends of them to a fresh file-backed store, and a second
// proof of every proven rewrite.
func probeLayers(seed int64, ks []stoke.Kernel, tests int, proven []provenAnswer, st *store.Store) (layerSet, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x70726f6265))
	ls := layerSet{}
	var genMS, evalNS, canonUS []float64
	for _, k := range ks {
		var tcs []testgen.Testcase
		for r := 0; r < 5; r++ {
			t0 := time.Now()
			var err error
			tcs, err = testgen.Generate(k.Target, k.Spec, tests, rng)
			if err != nil {
				return nil, err
			}
			genMS = append(genMS, time.Since(t0).Seconds()*1e3)
		}

		f := cost.NewLive(tcs, k.Spec.LiveOut, cost.Improved, 1)
		c := f.Compile(k.Target)
		const evals = 2000
		t0 := time.Now()
		for r := 0; r < evals; r++ {
			f.EvalCompiled(c, cost.MaxBudget)
		}
		evalNS = append(evalNS, float64(time.Since(t0).Nanoseconds())/float64(evals*len(tcs)))

		const canons = 200
		t0 = time.Now()
		for r := 0; r < canons; r++ {
			canon.Canonicalize(k.Target, liveOf(k))
		}
		canonUS = append(canonUS, time.Since(t0).Seconds()*1e6/canons)
	}
	ls["testgen.generate_ms"] = median(genMS)
	ls["cost.eval_ns_per_test"] = median(evalNS)
	ls["canon.canonicalize_us"] = median(canonUS)

	var reproofMS, reproofClauses []float64
	for _, a := range proven {
		t0 := time.Now()
		res := verify.Equivalent(context.Background(), a.k.Target, a.rewrite, liveOf(a.k), verify.DefaultConfig)
		reproofMS = append(reproofMS, time.Since(t0).Seconds()*1e3)
		reproofClauses = append(reproofClauses, float64(res.Clauses))
	}
	ls["verify.reproof_ms"] = median(reproofMS)
	ls["verify.reproof_clauses"] = median(reproofClauses)
	ls["reproof_max_ms"] = quantile(reproofMS, 1)

	getUS, putUS, logBytes, err := probeStore(st, proven)
	if err != nil {
		return nil, err
	}
	ls["store.get_us"], ls["store.put_us"] = getUS, putUS
	if logBytes > 0 {
		ls["store.log_bytes"] = logBytes
	}
	return ls, nil
}

// probeStore times Get of every proven kernel's entry in st and Put of
// those entries into a fresh file-backed store, whose log size it also
// reports.
func probeStore(st *store.Store, proven []provenAnswer) (getUS, putUS, logBytes float64, err error) {
	var entries []*store.Entry
	var gets []float64
	for _, a := range proven {
		form := canon.Canonicalize(a.k.Target, liveOf(a.k))
		const reps = 200
		var e *store.Entry
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			e, _ = st.Get(form.FP.Hex(), form.Consts)
		}
		gets = append(gets, time.Since(t0).Seconds()*1e6/reps)
		if e != nil {
			entries = append(entries, e)
		}
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return 0, 0, 0, err
	}
	dir, err := os.MkdirTemp(".bench_build", "probe-store-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "rewrites.jsonl")
	ps, err := store.Open(path, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	var puts []float64
	for r := 0; r < 20; r++ {
		for _, e := range entries {
			c := *e
			c.Meta.Seed = int64(r)
			t0 := time.Now()
			if err := ps.Put(&c); err != nil {
				return 0, 0, 0, err
			}
			puts = append(puts, time.Since(t0).Seconds()*1e6)
		}
	}
	if fi, err := os.Stat(path); err == nil {
		logBytes = float64(fi.Size())
	}
	return median(gets), median(puts), logBytes, nil
}
