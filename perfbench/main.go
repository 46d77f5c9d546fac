// Command perfbench measures how long a user waits for a proven, cheaper
// rewrite, and which layer spent that time.
//
// It drives the public surfaces from outside: stoke.Engine.Optimize with a
// fresh Engine per pass (workloads hd-search and verify-heavy) and
// internal/server over a loopback listener (workload serve-mixed). Every
// run repeats its workload in passes until --seconds have elapsed (at
// least two passes, which must agree exactly on the engine workloads),
// checks every proven answer against an independent reference on seeded
// random inputs, and prints one JSON object as the last line of standard
// output.
//
// Usage, from the root of the repository:
//
//	sh perfbench/run.sh --workload hd-search --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs one untraced
// pass, then traced passes with observer spans and timed calls into each
// layer, and prints the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
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

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	workers  int
}

// workload runs a whole measured run and returns its result.
type workload func(cfg config) (*result, error)

var workloads = map[string]workload{
	"hd-search":    func(cfg config) (*result, error) { return runEngine(cfg, hdSearch) },
	"verify-heavy": func(cfg config) (*result, error) { return runEngine(cfg, verifyHeavy) },
	"serve-mixed":  runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "hd-search, verify-heavy or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measure for this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	cfg.traced = trace != 0
	cfg.workers = runtime.NumCPU()

	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: hd-search, verify-heavy, serve-mixed)\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.seed == 0 {
		cfg.seed = 1 // a zero seed means "default" to the job API
	}
	res, err := w(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// samples are a run's end-to-end measurements.
type samples struct {
	ttvrs, walls, hitLat, setups []float64
	proven, answers              int // proven, checked answers of those verified_frac counts
	speedup                      float64
}

// metrics reports the end-to-end metrics and prints the sample counts
// and the hit latency tail, which is not bounded (see blockP99).
func (s *samples) metrics() map[string]metric {
	fmt.Printf("ttvr samples=%d hit samples=%d setups=%d\n", len(s.ttvrs), len(s.hitLat), len(s.setups))
	fmt.Printf("hit p95=%.3fms p99=%.3fms\n", quantile(s.hitLat, 0.95), blockP99(s.hitLat))
	return map[string]metric{
		"ttvr_p50_s":      {median(s.ttvrs), "s"},
		"wall_s":          {median(s.walls), "s"},
		"verified_frac":   {ratio(float64(s.proven), float64(s.answers)), "fraction"},
		"speedup_geomean": {s.speedup, "x"},
		"hit_p50_ms":      {median(s.hitLat), "ms"},
		"setup_s":         {median(s.setups), "s"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
	}
}

// timeSetup runs the set-up f and records its duration in s.setups.
func timeSetup[E any](s *samples, f func() (E, error)) (E, error) {
	t0 := time.Now()
	env, err := f()
	s.setups = append(s.setups, time.Since(t0).Seconds())
	return env, err
}

// extraSetups is how many set-ups a run measures before its passes, each
// of which sets up once more; setup_s is the median of all of them.
const extraSetups = 25

// hitBlock is the number of consecutive hits per block of blockP99.
const hitBlock = 250

// blockP99 is the median, over blocks of hitBlock consecutive hits, of
// each block's 99th percentile. A burst of slow hits on a shared machine
// moves one block's figure, not the median. Even so, the tail moves with
// the load other tenants put on the machine: over sets of ten runs the
// spread of the 99th percentile reached 0.28 on hd-search and that of the
// 95th 0.32 on serve-mixed, so neither is a bounded end-to-end metric;
// both are per-layer figures and printed with every run.
func blockP99(lat []float64) float64 {
	var p99s []float64
	for i := 0; i+hitBlock <= len(lat); i += hitBlock {
		p99s = append(p99s, quantile(lat[i:i+hitBlock], 0.99))
	}
	if len(p99s) == 0 {
		return quantile(lat, 0.99)
	}
	return median(p99s)
}

// minPasses is the fewest passes a run makes: the engine workloads check
// that two passes at one seed agree exactly.
const minPasses = 2

// loop runs passes until the measuring time is spent: at least minPasses,
// and another only while it is expected to end within the time.
func loop(cfg config, pass func(i int) error) error {
	start := time.Now()
	var walls []float64
	for i := 0; ; i++ {
		if i >= minPasses {
			elapsed := time.Since(start).Seconds()
			if elapsed+median(walls) > cfg.seconds {
				return nil
			}
		}
		t0 := time.Now()
		if err := pass(i); err != nil {
			return err
		}
		walls = append(walls, time.Since(t0).Seconds())
	}
}

// failures counts answers by the reason they are not a checked, proven
// rewrite.
type failures map[string]int

func (f failures) String() string {
	if len(f) == 0 {
		return "none"
	}
	var keys []string
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, f[k]))
	}
	return strings.Join(parts, " ")
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// median is the middle sample, or the mean of the two middle samples of
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs, or zero for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ratio is a/b, or zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
