package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/verify"
	"repro/stoke"
)

// addSpec is the integration smoke kernel: rax := rdi + rsi through stack
// scratch, small enough that a quick search proves it in about a second.
func addSpec(name string) KernelSpec {
	return KernelSpec{
		Name: name,
		Target: `
  movq rdi, -8(rsp)
  movq rsi, -16(rsp)
  movq -8(rsp), rax
  addq -16(rsp), rax
`,
		Inputs:  []string{"rdi", "rsi"},
		Outputs: []string{"rax"},
	}
}

// renamedAddSpec is addSpec under rdi→r8, rsi→r9, rax→rbx — α-equivalent,
// textually different.
func renamedAddSpec(name string) KernelSpec {
	return KernelSpec{
		Name: name,
		Target: `
  movq r8, -8(rsp)
  movq r9, -16(rsp)
  movq -8(rsp), rbx
  addq -16(rsp), rbx
`,
		Inputs:  []string{"r8", "r9"},
		Outputs: []string{"rbx"},
	}
}

func quickBudgets() Budgets {
	return Budgets{
		SynthProposals: 60000, OptProposals: 60000,
		SynthChains: 2, OptChains: 2,
		Ell: 12, Seed: 11,
	}
}

type env struct {
	t      *testing.T
	srv    *Server
	ts     *httptest.Server
	engine *stoke.Engine
	store  *store.Store
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = stoke.NewEngine(stoke.EngineConfig{Workers: 4})
	}
	if cfg.Store == nil {
		s, err := store.Open(filepath.Join(t.TempDir(), "rewrites.jsonl"), 64)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = s
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	e := &env{t: t, srv: srv, ts: ts, engine: cfg.Engine, store: cfg.Store}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		e.engine.Close()
		_ = e.store.Close()
	})
	return e
}

func (e *env) submit(req SubmitRequest, tenant string) (JobView, int) {
	e.t.Helper()
	body, _ := json.Marshal(req)
	hreq, _ := http.NewRequest("POST", e.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if tenant != "" {
		hreq.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			e.t.Fatalf("submit: bad response body: %v", err)
		}
	}
	return v, resp.StatusCode
}

func (e *env) poll(id string) JobView {
	e.t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		e.t.Fatal(err)
	}
	return v
}

func (e *env) await(id string, timeout time.Duration) JobView {
	e.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := e.poll(id)
		if v.Status == "done" || v.Status == "failed" {
			return v
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("job %s still %q after %v", id, v.Status, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (e *env) statsz() Statsz {
	e.t.Helper()
	resp, err := http.Get(e.ts.URL + "/statsz")
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		e.t.Fatal(err)
	}
	return st
}

// TestServerMissThenHit is the service-level acceptance test: the first
// submission queues a search; resubmitting the identical kernel — and an
// α-renamed variant — answers synchronously from the store without another
// search launch.
func TestServerMissThenHit(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})

	v, code := e.submit(SubmitRequest{Kernel: addSpec("add"), Budgets: quickBudgets()}, "")
	if code != http.StatusAccepted {
		t.Fatalf("cold submit: status %d, want 202", code)
	}
	if v.Status != "queued" && v.Status != "running" {
		t.Fatalf("cold submit: job status %q", v.Status)
	}
	final := e.await(v.ID, 120*time.Second)
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("job did not complete: %+v", final)
	}
	if final.Result.CacheHit {
		t.Fatal("first submission cannot be a cache hit")
	}
	if got := e.engine.SearchesLaunched(); got != 1 {
		t.Fatalf("searches launched %d, want 1", got)
	}

	// Identical resubmission: synchronous 200 with the proven rewrite.
	v2, code := e.submit(SubmitRequest{Kernel: addSpec("add")}, "")
	if code != http.StatusOK {
		t.Fatalf("warm submit: status %d, want 200", code)
	}
	if v2.Status != "done" || v2.Result == nil || !v2.Result.CacheHit {
		t.Fatalf("warm submit not served from cache: %+v", v2)
	}
	if v2.Result.Rewrite != final.Result.Rewrite {
		t.Fatalf("cached rewrite differs:\n%s\nvs\n%s", v2.Result.Rewrite, final.Result.Rewrite)
	}
	if got := e.engine.SearchesLaunched(); got != 1 {
		t.Fatalf("cache hit launched a search: %d, want 1", got)
	}

	// α-renamed variant: same fingerprint class, still a synchronous hit.
	v3, code := e.submit(SubmitRequest{Kernel: renamedAddSpec("add-renamed")}, "")
	if code != http.StatusOK || !v3.Result.CacheHit {
		t.Fatalf("renamed variant missed: status %d, %+v", code, v3)
	}
	if v3.Result.Fingerprint != final.Result.Fingerprint {
		t.Fatal("α-equivalent kernels must share a fingerprint")
	}
	if got := e.engine.SearchesLaunched(); got != 1 {
		t.Fatalf("renamed hit launched a search: %d, want 1", got)
	}

	st := e.statsz()
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("statsz counters: hits %d misses %d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitMeanUS <= 0 {
		t.Fatal("statsz must report a cache-hit latency once hits exist")
	}
	if st.Store == nil || st.Store.Entries == 0 {
		t.Fatal("statsz must surface store stats")
	}
}

// TestServerInflightDedup: an identical submission while the first is
// queued or running attaches to it instead of enqueueing a second search.
func TestServerInflightDedup(t *testing.T) {
	e := newEnv(t, Config{Workers: 1, PerTenant: 1})

	big := quickBudgets()
	big.SynthProposals = 200 << 20 // keep the first job busy
	big.OptProposals = 200 << 20
	v1, code := e.submit(SubmitRequest{Kernel: addSpec("slow"), Budgets: big}, "")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	v2, code := e.submit(SubmitRequest{Kernel: addSpec("slow")}, "")
	if code != http.StatusAccepted {
		t.Fatalf("duplicate submit: status %d", code)
	}
	if v2.ID != v1.ID {
		t.Fatalf("duplicate submission got its own job %s (want attach to %s)", v2.ID, v1.ID)
	}
	if v2.Attached != 1 {
		t.Fatalf("attached count %d, want 1", v2.Attached)
	}
	if st := e.statsz(); st.JobsAttached != 1 {
		t.Fatalf("statsz attached %d, want 1", st.JobsAttached)
	}
	// Cleanup's Shutdown cancels the fat job; it must still finish Partial.
}

// TestServerInflightRenamedTwins: an α-renamed twin of a job in flight
// shares its store address but gets its own job, and each submitter's
// answer is proven equivalent to its own target, on its own registers.
func TestServerInflightRenamedTwins(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})

	specs := []KernelSpec{addSpec("add"), renamedAddSpec("add-renamed")}
	views := make([]JobView, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, code := e.submit(SubmitRequest{Kernel: spec, Budgets: quickBudgets()}, "")
			if code != http.StatusAccepted {
				t.Errorf("%s: status %d, want 202", spec.Name, code)
			}
			views[i] = v
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if views[0].ID == views[1].ID {
		t.Fatalf("renamed twin attached to job %s", views[0].ID)
	}
	for i, spec := range specs {
		final := e.await(views[i].ID, 120*time.Second)
		if final.Status != "done" || final.Result == nil || final.Result.Rewrite == "" {
			t.Fatalf("%s: job did not complete with a rewrite: %+v", spec.Name, final)
		}
		if final.Attached != 0 {
			t.Fatalf("%s: %d submitters attached, want 0", spec.Name, final.Attached)
		}
		k, err := buildKernel(spec)
		if err != nil {
			t.Fatal(err)
		}
		rewrite, err := stoke.Parse(final.Result.Rewrite)
		if err != nil {
			t.Fatalf("%s: unparsable rewrite: %v", spec.Name, err)
		}
		live := verify.LiveOut{GPRs: k.Spec.LiveOut.GPRs}
		if res := verify.Equivalent(context.Background(), k.Target, rewrite, live, verify.DefaultConfig); res.Verdict != verify.Equal {
			t.Fatalf("%s: answer is %v to its own target:\n%s", spec.Name, res.Verdict, final.Result.Rewrite)
		}
	}
}

// TestServerBadRequests: malformed bodies and kernels are rejected with
// 400s, unknown jobs with 404.
func TestServerBadRequests(t *testing.T) {
	e := newEnv(t, Config{Workers: 1})

	for _, tc := range []struct {
		name string
		spec KernelSpec
	}{
		{"empty name", KernelSpec{Target: "addq rsi, rax", Outputs: []string{"rax"}}},
		{"bad asm", KernelSpec{Name: "x", Target: "frobnicate rax", Outputs: []string{"rax"}}},
		{"bad reg", KernelSpec{Name: "x", Target: "addq rsi, rax", Outputs: []string{"xyzzy"}}},
		{"no outputs", KernelSpec{Name: "x", Target: "addq rsi, rax"}},
		{"wrong width", KernelSpec{Name: "x", Target: "addq rsi, rax", Outputs: []string{"eax"}}},
	} {
		_, code := e.submit(SubmitRequest{Kernel: tc.spec}, "")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	resp, err := http.Get(e.ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestServerEvents: the SSE stream replays the job's engine events and
// terminates with a done event carrying the final report.
func TestServerEvents(t *testing.T) {
	e := newEnv(t, Config{Workers: 2})

	v, code := e.submit(SubmitRequest{Kernel: addSpec("add"), Budgets: quickBudgets()}, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	e.await(v.ID, 120*time.Second)

	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var engineEvents, doneEvents int
	var kinds []string
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "engine":
				engineEvents++
				var w wireEvent
				if err := json.Unmarshal([]byte(data), &w); err != nil {
					t.Fatalf("bad engine event %q: %v", data, err)
				}
				kinds = append(kinds, w.Kind)
			case "done":
				doneEvents++
				var jv JobView
				if err := json.Unmarshal([]byte(data), &jv); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				if jv.Status != "done" || jv.Result == nil {
					t.Fatalf("done event without terminal result: %+v", jv)
				}
			}
		}
	}
	if engineEvents == 0 {
		t.Fatal("no engine events streamed")
	}
	if doneEvents != 1 {
		t.Fatalf("done events %d, want 1", doneEvents)
	}
	joined := strings.Join(kinds, ",")
	for _, want := range []string{"phase-start", "verdict"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event stream missing %q (got %s)", want, joined)
		}
	}
}

// TestServerDrainReturnsPartial: shutting down mid-search completes the
// running job with a best-so-far partial report, not an error.
func TestServerDrainReturnsPartial(t *testing.T) {
	engine := stoke.NewEngine(stoke.EngineConfig{Workers: 4})
	s, err := store.Open("", 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: engine, Store: s, Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer engine.Close()

	big := quickBudgets()
	big.SynthProposals = 200 << 20
	big.OptProposals = 200 << 20
	body, _ := json.Marshal(SubmitRequest{Kernel: addSpec("slow"), Budgets: big})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()

	// Let the search actually start before draining.
	deadline := time.Now().Add(10 * time.Second)
	for engine.SearchesLaunched() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The drained server still answers polls; the job must be terminal
	// with a partial report.
	hresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final JobView
	_ = json.NewDecoder(hresp.Body).Decode(&final)
	hresp.Body.Close()
	if final.Status != "done" || final.Result == nil || !final.Result.Partial {
		t.Fatalf("drained job is not a partial success: %+v", final)
	}

	// And refuses new work.
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d, want 503", resp2.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: status %d, want 503", hz.StatusCode)
	}
}

// TestServerShutdownLeaksNoGoroutines: a full submit/run/drain lifecycle —
// including an open SSE subscriber at drain time — leaves no goroutines
// behind.
func TestServerShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	engine := stoke.NewEngine(stoke.EngineConfig{Workers: 2})
	s, err := store.Open(filepath.Join(t.TempDir(), "rw.jsonl"), 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: engine, Store: s, Workers: 2})
	ts := httptest.NewServer(srv.Handler())

	big := quickBudgets()
	big.SynthProposals = 200 << 20
	big.OptProposals = 200 << 20
	body, _ := json.Marshal(SubmitRequest{Kernel: addSpec("slow"), Budgets: big})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	_ = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()

	// An SSE subscriber held open across the drain.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	sseReq, _ := http.NewRequestWithContext(sseCtx, "GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	sseResp, err := http.DefaultClient.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
		}
		sseResp.Body.Close()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for engine.SearchesLaunched() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-sseDone:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not terminate after drain")
	}
	ts.Close()
	engine.Close()
	_ = s.Close()

	// Goroutine counts settle asynchronously (HTTP keepalives, test
	// plumbing); poll with slack instead of asserting an exact number.
	deadline = time.Now().Add(20 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines before=%d after=%d; stacks:\n%s", before, after, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestServerQueueFull: a saturated queue answers 429 and the rejected job
// does not linger in the jobs table or the dedup index.
func TestServerQueueFull(t *testing.T) {
	engine := stoke.NewEngine(stoke.EngineConfig{Workers: 2})
	s, err := store.Open("", 16)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Engine: engine, Store: s, Workers: 1, QueueDepth: 1, PerTenant: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		engine.Close()
		_ = s.Close()
	}()

	big := quickBudgets()
	big.SynthProposals = 200 << 20
	big.OptProposals = 200 << 20
	post := func(name string) int {
		body, _ := json.Marshal(SubmitRequest{
			Kernel: KernelSpec{
				Name:    name,
				Target:  fmt.Sprintf("movq rdi, rax\naddq $%d, rax\naddq rsi, rax", len(name)),
				Inputs:  []string{"rdi", "rsi"},
				Outputs: []string{"rax"},
			},
			Budgets: big,
		})
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Distinct kernels (distinct constants) so dedup cannot absorb them:
	// one runs, one queues, the third must bounce.
	codes := []int{post("a"), post("bb"), post("ccc")}
	var full int
	for _, c := range codes {
		if c == http.StatusTooManyRequests {
			full++
		}
	}
	if full == 0 {
		t.Fatalf("no submission bounced off the full queue: %v", codes)
	}
}
