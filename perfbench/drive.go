package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sciborq/internal/xrand"
)

// slotKind is one position of a connection's repeating operation
// pattern; mixer turns it into a concrete statement.
type slotKind int

const (
	kPointHot  slotKind = iota // repeated box or cone spelling
	kPointCold                 // fresh box literals
	kExecHot                   // wire Execute, rebound to a hot box
	kExecCold                  // wire Execute, rebound to a fresh box
	kErrHot                    // WITHIN ERROR on a repeated box
	kErrCold                   // WITHIN ERROR on a fresh box
	kErrTight                  // WITHIN ERROR tight enough to reach the base rung
	kTime                      // WITHIN TIME
	kScanFull                  // whole-table aggregate
	kScanWide                  // wide ra window aggregate
	kGroup                     // GROUP BY type
	kExport                    // wire projection of a wide ra window
)

type slot struct {
	k slotKind
	v via
}

// mixer draws statements for slots. With fixed set, every draw comes
// from the finite pools (the ingest workload needs a reference for each
// statement at every batch prefix); otherwise cold slots draw fresh
// literals.
type mixer struct {
	mu       sync.Mutex // closed-loop clients draw concurrently
	pl       *pool
	rng      *xrand.RNG
	fixed    bool
	budget   time.Duration
	tightEps float64
	hotPoint []pred
	hotErr   []pred
	hotTime  []pred
	wide     []pred
	exports  []pred
	tight    []pred
}

// skewed picks from a hot pool with a Zipf-like skew: low indexes are
// drawn far more often, as a scientist returns to the same regions.
func (m *mixer) skewed(ps []pred) pred {
	u := m.rng.Float64()
	return ps[int(float64(len(ps))*u*u)]
}

func (m *mixer) any(ps []pred) pred { return ps[m.rng.Intn(len(ps))] }

func (m *mixer) stmt(k slotKind) stmt {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fixed {
		switch k {
		case kPointCold:
			k = kPointHot
		case kExecCold:
			k = kExecHot
		case kErrCold:
			k = kErrHot
		}
	}
	switch k {
	case kPointHot:
		return aggStmt(clsPoint, m.skewed(m.hotPoint))
	case kPointCold:
		return aggStmt(clsPoint, m.pl.box(0.5, 2, true))
	case kExecHot:
		for {
			if p := m.skewed(m.hotPoint); p.kind == predBox {
				return preparedStmt(p)
			}
		}
	case kExecCold:
		return preparedStmt(m.pl.box(0.5, 2, true))
	case kErrHot:
		eps := 0.05
		if m.rng.Intn(2) == 0 {
			eps = 0.1
		}
		return errorStmt(m.skewed(m.hotErr), eps)
	case kErrCold:
		return errorStmt(m.pl.box(3, 8, true), 0.05)
	case kErrTight:
		if m.fixed {
			return errorStmt(m.any(m.tight), m.tightEps)
		}
		return errorStmt(m.pl.box(3, 8, true), m.tightEps)
	case kTime:
		if m.fixed {
			return timeStmt(m.any(m.hotTime), m.budget)
		}
		return timeStmt(m.pl.box(3, 4, false), m.budget)
	case kScanFull:
		return aggStmt(clsScan, pred{kind: predAll})
	case kScanWide:
		if m.fixed {
			return aggStmt(clsScan, m.any(m.wide))
		}
		return aggStmt(clsScan, m.pl.raRange(30, 80))
	case kGroup:
		return groupStmt()
	case kExport:
		if m.fixed {
			return exportStmt(m.any(m.exports))
		}
		return exportStmt(m.pl.raRange(18, 24))
	}
	panic(fmt.Sprintf("unknown slot kind %d", k))
}

func newMixer(pl *pool, seed uint64, fixed bool, budget time.Duration, tightEps float64) *mixer {
	m := &mixer{pl: pl, rng: xrand.New(seed*31 + 7), fixed: fixed, budget: budget, tightEps: tightEps}
	for i := 0; i < 32; i++ {
		// One in four hot predicates is a cone, spread through the
		// pool so the skew reaches both shapes.
		if i%4 == 1 {
			m.hotPoint = append(m.hotPoint, pl.cone())
		} else {
			m.hotPoint = append(m.hotPoint, pl.box(0.5, 2, true))
		}
	}
	for i := 0; i < 12; i++ {
		m.hotErr = append(m.hotErr, pl.box(3, 8, true))
	}
	// WITHIN TIME is scored by its median relative error, which many
	// distinct boxes spread over the sky estimate far more steadily than
	// a few overlapping ones.
	for i := 0; i < 128; i++ {
		m.hotTime = append(m.hotTime, pl.box(3, 4, false))
	}
	if fixed {
		for i := 0; i < 4; i++ {
			m.wide = append(m.wide, pl.raRange(30, 80))
			m.exports = append(m.exports, pl.raRange(20, 30))
			m.tight = append(m.tight, pl.box(3, 8, true))
		}
	}
	return m
}

// cones returns the pooled cones (the only predicates the grid
// histogram cannot answer).
func (m *mixer) cones() []pred {
	var out []pred
	for _, p := range m.hotPoint {
		if p.kind == predCone {
			out = append(out, p)
		}
	}
	return out
}

// preds lists every pooled predicate of a fixed mixer.
func (m *mixer) preds() []pred {
	out := []pred{{kind: predAll}}
	for _, ps := range [][]pred{m.hotPoint, m.hotErr, m.hotTime, m.wide, m.exports, m.tight} {
		out = append(out, ps...)
	}
	return out
}

// refs answers "which results may this operation return?".
type refs interface {
	expects(s *stmt, lo, hi int64) []expect
	// window reports the acknowledged and started load counts, which
	// bracket the batch prefixes an operation can observe.
	window() (acked, started int64)
}

// staticRefs serves a table no load changes during the run.
type staticRefs struct{ rb *refbook }

func (r staticRefs) window() (int64, int64) { return 0, 0 }

func (r staticRefs) expects(s *stmt, _, _ int64) []expect {
	if s.groupBy {
		return []expect{{groups: r.rb.groups()}}
	}
	return []expect{{a: r.rb.answer(s.p)}}
}

// prefixRefs serves a table loads extend during the run: it keeps the
// answer of every pooled predicate after every batch.
type prefixRefs struct {
	index   map[pred]int
	answers [][]agg          // [prefix][pred]
	groups  []map[string]agg // [prefix]
	acked   atomic.Int64
	started atomic.Int64
}

func newPrefixRefs(preds []pred) *prefixRefs {
	r := &prefixRefs{index: map[pred]int{}}
	for _, p := range preds {
		if _, ok := r.index[p]; !ok {
			r.index[p] = len(r.index)
		}
	}
	return r
}

// snapshot records the answers after the batches added so far.
func (r *prefixRefs) snapshot(rb *refbook) {
	row := make([]agg, len(r.index))
	for p, i := range r.index {
		row[i] = rb.answer(p)
	}
	r.answers = append(r.answers, row)
	r.groups = append(r.groups, rb.groups())
}

func (r *prefixRefs) window() (int64, int64) { return r.acked.Load(), r.started.Load() }

func (r *prefixRefs) expects(s *stmt, lo, hi int64) []expect {
	var out []expect
	for k := lo; k <= hi && k < int64(len(r.answers)); k++ {
		if s.groupBy {
			out = append(out, expect{groups: r.groups[k]})
			continue
		}
		i, ok := r.index[s.p]
		if !ok {
			return nil
		}
		out = append(out, expect{a: r.answers[k][i]})
	}
	return out
}

// recorder gathers per-class samples and per-layer observations from
// the client side. It is shared by the client goroutines.
type recorder struct {
	mu         sync.Mutex
	lat        [numClasses][]float64 // ms, from intended send time
	exportRate []float64             // rows/s per export
	relErr     []float64             // WITHIN TIME quality
	late       []float64             // ms the generator sent behind schedule
	queueUs    []float64             // server-reported admission wait
	ebAnswers  int
	ebRungs    int
	ebBase     int
	tbAnswers  int
	tbRows     int64
	tbUse      []float64
	tbMissed   int
	attempted  int
	failed     int
	checkErrs  []string
	tr         *tracer
}

// do runs one operation, checks its answer and records it. due is the
// intended send time (the actual send time in a closed loop).
func (r *recorder) do(c *conns, v via, s *stmt, due time.Time, ref refs) {
	op := r.tr.newOp()
	root := r.tr.begin("client."+classNames[s.cls], 0, op)
	lo, _ := ref.window()
	sent := time.Now()
	rt := r.tr.begin(transportName(v, s), root, op)
	rep, err := c.run(v, s)
	done := time.Now()
	r.tr.end(rt)
	_, hi := ref.window()
	var rel float64 = -1
	var cerr error
	if err == nil {
		ck := r.tr.begin("bench.check", root, op)
		rel, cerr = check(s, rep, ref.expects(s, lo, hi))
		r.tr.end(ck)
	}
	r.tr.end(root)

	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.checkErrs) < 5 {
			fmt.Printf("operation failed: %q: %v\n", s.sql, err)
		}
		return
	}
	if cerr != nil {
		r.checkErrs = append(r.checkErrs, cerr.Error())
		return
	}
	r.late = append(r.late, ms(sent.Sub(due)))
	r.queueUs = append(r.queueUs, float64(rep.queueNs)/1e3)
	lat := done.Sub(due)
	switch s.cls {
	case clsTime:
		r.relErr = append(r.relErr, rel)
		b := rep.bounded
		r.tbAnswers++
		if len(b.Trail) > 0 {
			t := b.Trail[len(b.Trail)-1]
			r.tbRows += int64(t.Rows)
			r.tbUse = append(r.tbUse, float64(t.ElapsedNs)/float64(s.budget.Nanoseconds()))
		}
		if !b.BoundMet {
			r.tbMissed++
		}
		return // scored on quality only
	case clsError:
		r.ebAnswers++
		r.ebRungs += len(rep.bounded.Trail)
		if rep.bounded.Exact {
			r.ebBase++
		}
	case clsExport:
		r.exportRate = append(r.exportRate, float64(rep.rows)/done.Sub(sent).Seconds())
	}
	r.lat[s.cls] = append(r.lat[s.cls], ms(lat))
}

func transportName(v via, s *stmt) string {
	switch {
	case s.lits != nil:
		return "wire.execute"
	case v == viaWire || s.cls == clsExport:
		return "wire.query"
	}
	return "http.query"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// openLoop sends ops on one goroutine at fixed intervals from start,
// whatever the replies' latency, until the ops run out or stop closes.
func openLoop(r *recorder, c *conns, ops []slotOp, start time.Time, interval time.Duration, ref refs, stop <-chan struct{}) {
	for i := range ops {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			select {
			case <-stop:
				return
			case <-time.After(d):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		r.do(c, ops[i].v, &ops[i].s, due, ref)
	}
}

// closedLoop runs whole rounds of a pattern back to back until the
// deadline has passed.
func closedLoop(r *recorder, c *conns, m *mixer, pattern []slot, deadline time.Time, ref refs) {
	for time.Now().Before(deadline) {
		for _, sl := range pattern {
			s := m.stmt(sl.k)
			r.do(c, sl.v, &s, time.Now(), ref)
		}
	}
}

type slotOp struct {
	v via
	s stmt
}

// schedule expands rounds of a per-connection pattern into concrete
// operations. The order within a round is fixed, so every seed queues
// the same operations behind the slow ones.
func schedule(m *mixer, pattern []slot, rounds int) []slotOp {
	out := make([]slotOp, 0, rounds*len(pattern))
	for r := 0; r < rounds; r++ {
		for _, sl := range pattern {
			out = append(out, slotOp{v: sl.v, s: m.stmt(sl.k)})
		}
	}
	return out
}

// interleave merges the parts into one round, spreading each part's
// slots evenly through it, so slow operations do not bunch up.
func interleave(parts ...[]slot) []slot {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	taken := make([]int, len(parts))
	out := make([]slot, 0, total)
	for i := 0; i < total; i++ {
		best, lag := -1, 0.0
		for k, p := range parts {
			if taken[k] == len(p) {
				continue
			}
			if d := float64(i+1)*float64(len(p))/float64(total) - float64(taken[k]); best < 0 || d > lag {
				best, lag = k, d
			}
		}
		out = append(out, parts[best][taken[best]])
		taken[best]++
	}
	return out
}

func repeat(k slotKind, v via, n int) []slot {
	out := make([]slot, n)
	for i := range out {
		out[i] = slot{k, v}
	}
	return out
}

// Summaries.

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least ten samples beyond it;
// with fewer than forty samples there is no tail and it is the median.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 40 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Min(float64(len(s)-1), q*float64(len(s))))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
