// Command perfbench is the end-to-end benchmark of sciborq. It runs the
// program in its own process behind real loopback listeners (HTTP and
// the binary wire protocol), drives one workload against it from at
// most two client goroutines, checks every answer against references
// it computes itself, and prints the metrics as the last line of its
// output:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 16 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics, from spans it records around its calls
// into each layer, and writes the spans to .bench_build. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "explore | archive | ingest")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run")
	flag.Parse()
	work := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%s-%d-%d", *workload, *seed, os.Getpid()))
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, work: work,
		tr: newTracer(), layer: map[string]float64{}}
	res, err := b.run()
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	var ce checkError
	if errors.As(err, &ce) {
		fmt.Println("check failed:", ce.msg)
		out, _ := json.Marshal(result{Correct: false, Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}})
		fmt.Println(string(out))
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

func (b *bench) run() (result, error) {
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return result{}, err
	}
	var err error
	switch b.workload {
	case "explore":
		err = b.explore()
	case "archive":
		err = b.archive()
	case "ingest":
		err = b.ingest()
	default:
		return result{}, fmt.Errorf("unknown workload %q (want explore, archive or ingest)", b.workload)
	}
	res := result{Correct: err == nil}
	if b.rec != nil {
		res.Attempted, res.Failed = b.rec.attempted, b.rec.failed
		if b.untraced != nil {
			res.Attempted += b.untraced.attempted
			res.Failed += b.untraced.failed
		}
		for _, r := range []*recorder{b.rec, b.untraced} {
			if r != nil && len(r.checkErrs) > 0 && err == nil {
				err = checkError{fmt.Sprintf("%d answers failed their check; first: %s", len(r.checkErrs), r.checkErrs[0])}
			}
		}
	}
	if err != nil {
		res.Correct = false
		return res, err
	}
	if b.trace {
		res.Metrics = b.perLayer()
		if err := b.tr.write(filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))); err != nil {
			return res, err
		}
	} else {
		res.Metrics = b.endToEnd()
	}
	for name, m := range res.Metrics {
		if m.Value != m.Value { // NaN: a class drew no samples
			return res, fmt.Errorf("metric %s has no samples", name)
		}
	}
	return res, nil
}

func (b *bench) endToEnd() map[string]metric {
	r := b.rec
	scanTail, pct := tail(r.lat[clsScan])
	for _, c := range []class{clsPoint, clsError, clsTime, clsScan, clsExport} {
		n := len(r.lat[c])
		if c == clsTime {
			n = len(r.relErr)
		}
		fmt.Printf("%s: %d samples\n", classNames[c], n)
	}
	fmt.Printf("scan tail = p%.1f\n", pct)
	return map[string]metric{
		"setup_s":            {median(b.setups), "s"},
		"point_p50_ms":       {median(r.lat[clsPoint]), "ms"},
		"error_bound_p50_ms": {median(r.lat[clsError]), "ms"},
		"scan_p50_ms":        {median(r.lat[clsScan]), "ms"},
		"scan_tail_ms":       {scanTail, "ms"},
		"export_rows_per_s":  {median(r.exportRate), "1/s"},
		"load_rows_per_s":    {median(b.loadRates), "1/s"},
		"rss_peak_mb":        {rssPeakMB(), "MB"},
	}
}

func (b *bench) perLayer() map[string]metric {
	r := b.rec
	l := b.layer
	// What clients see but cannot be held to a bound on a shared
	// two-CPU machine (README.md, Steadiness): open-loop tails catch
	// every stall of the host, and WITHIN TIME quality follows the
	// picker's adaptive layer choice.
	l["client.point_tail_ms"], _ = tail(r.lat[clsPoint])
	l["client.error_bound_tail_ms"], _ = tail(r.lat[clsError])
	l["client.time_bound_relerr_p50"] = median(r.relErr)
	l["loadgen.late_p99_ms"] = quantile(r.late, 0.99)
	l["server.queue_wait_p99_us"] = quantile(r.queueUs, 0.99)
	if r.ebAnswers > 0 {
		l["bounded.rungs_per_answer"] = float64(r.ebRungs) / float64(r.ebAnswers)
	}
	l["bounded.base_rung_answers"] = float64(r.ebBase)
	if r.tbAnswers > 0 {
		l["bounded.time_bound_rows_mean"] = float64(r.tbRows) / float64(r.tbAnswers)
	}
	l["bounded.time_bound_budget_use_p50"] = quantile(r.tbUse, 0.5)
	l["bounded.time_bound_missed"] = float64(r.tbMissed)
	l["loader.batch_ms"] = median(b.loadMs)
	if len(b.reopenMs) > 0 {
		l["segment.reopen_ms"] = median(b.reopenMs)
	}
	if len(b.diskPerRow) > 0 {
		l["segment.disk_bytes_per_row"] = median(b.diskPerRow)
	}
	untraced, traced := median(b.untraced.lat[clsPoint]), median(r.lat[clsPoint])
	l["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
	l["trace.spans"] = float64(b.tr.count())
	out := map[string]metric{}
	for _, name := range perLayerNames {
		out[name] = metric{l[name], unitOf(name)}
	}
	return out
}

// perLayerNames lists every per-layer metric; a layer that does no work
// on a workload reports 0.
var perLayerNames = []string{
	"client.point_tail_ms", "client.error_bound_tail_ms", "client.time_bound_relerr_p50",
	"loadgen.late_p99_ms",
	"server.http_self_us", "server.queue_wait_p99_us",
	"wire.query_self_us", "wire.execute_self_us", "wire.encode_ns_per_row", "wire.bytes_per_row",
	"sqlparse.parse_us",
	"plancache.lookup_us", "plancache.alias_hits", "plancache.shape_hits", "plancache.canon_hits",
	"plancache.misses", "plancache.invalidations",
	"recycler.filter_hit_us", "recycler.filter_miss_us", "recycler.hits", "recycler.subsumed_hits",
	"recycler.misses", "recycler.admission_rejects", "recycler.evictions",
	"bounded.self_us", "bounded.rungs_per_answer", "bounded.base_rung_answers",
	"bounded.time_bound_rows_mean", "bounded.time_bound_budget_use_p50", "bounded.time_bound_missed",
	"impression.layer_scan_ns_per_sample_row", "impression.maintain_ms_per_batch",
	"estimate.sample_agg_us", "estimate.exact_rung_us", "estimate.exact_rung_alloc_kb",
	"engine.scan_ns_per_row", "engine.groupby_ns_per_row", "engine.morsels_skipped_share", "engine.alloc_kb_per_query",
	"segment.load_batch_ms", "segment.wal_bytes_per_row", "segment.seals", "segment.seal_ms",
	"segment.granule_hit_share", "segment.granule_faults", "segment.granule_evictions", "segment.reopen_ms",
	"segment.disk_bytes_per_row",
	"loader.batch_ms",
	"runtime.gc_cycles", "runtime.gc_pause_total_ms", "runtime.alloc_mb",
	"trace.overhead_pct", "trace.spans",
}

func unitOf(name string) string {
	suffixes := []struct{ s, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns_per_row", "ns"}, {"_ns_per_sample_row", "ns"},
		{"_per_row", "B"}, {"_kb", "KB"}, {"_kb_per_query", "KB"}, {"_mb", "MB"}, {"_share", "ratio"},
		{"_pct", "%"}, {"_per_answer", "count"}, {"_mean", "count"}, {"_p50", "ratio"}, {"_ms_per_batch", "ms"},
	}
	for _, s := range suffixes {
		if strings.HasSuffix(name, s.s) {
			return s.unit
		}
	}
	return "count"
}

// rssPeakMB reads the process's peak resident set from /proc.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
