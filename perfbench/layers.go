package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sciborq"
	"sciborq/internal/column"
	"sciborq/internal/engine"
	"sciborq/internal/estimate"
	"sciborq/internal/impression"
	"sciborq/internal/plancache"
	"sciborq/internal/recycler"
	"sciborq/internal/segment"
	"sciborq/internal/skyserver"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
	"sciborq/internal/wire"
)

// statsSnap is a point-in-time copy of the program's own counters.
type statsSnap struct {
	pc                         plancache.Stats
	rc                         recycler.Stats
	seals                      int64
	touches, faults, evictions int64
	gcs                        int64
	pauseNs, allocBytes        int64
}

func (b *bench) snapshot(e *env) statsSnap {
	s := statsSnap{pc: e.db.PlanCacheStats(), rc: e.db.RecyclerStats()}
	if st := e.db.StorageStats(); st != nil {
		for _, t := range st.Tables {
			s.seals += t.Seals
		}
		s.touches, s.faults, s.evictions = st.Cache.Touches, st.Cache.Faults, st.Cache.Evictions
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcs, s.pauseNs, s.allocBytes = int64(ms.NumGC), int64(ms.PauseTotalNs), int64(ms.TotalAlloc)
	return s
}

// add accumulates the change from a to z.
func (s *statsSnap) add(a, z statsSnap) {
	s.pc.Hits += z.pc.Hits - a.pc.Hits
	s.pc.ShapeHits += z.pc.ShapeHits - a.pc.ShapeHits
	s.pc.CanonHits += z.pc.CanonHits - a.pc.CanonHits
	s.pc.Misses += z.pc.Misses - a.pc.Misses
	s.pc.Invalidations += z.pc.Invalidations - a.pc.Invalidations
	s.rc.Hits += z.rc.Hits - a.rc.Hits
	s.rc.SubsumedHits += z.rc.SubsumedHits - a.rc.SubsumedHits
	s.rc.Misses += z.rc.Misses - a.rc.Misses
	s.rc.AdmissionRejects += z.rc.AdmissionRejects - a.rc.AdmissionRejects
	s.rc.Evictions += z.rc.Evictions - a.rc.Evictions
	s.seals += z.seals - a.seals
	s.touches += z.touches - a.touches
	s.faults += z.faults - a.faults
	s.evictions += z.evictions - a.evictions
	s.gcs += z.gcs - a.gcs
	s.pauseNs += z.pauseNs - a.pauseNs
	s.allocBytes += z.allocBytes - a.allocBytes
}

// deltas records the counters' change over the measured phase.
func (b *bench) deltas(a, z statsSnap) {
	var d statsSnap
	d.add(a, z)
	l := b.layer
	l["plancache.alias_hits"] = float64(d.pc.Hits)
	l["plancache.shape_hits"] = float64(d.pc.ShapeHits)
	l["plancache.canon_hits"] = float64(d.pc.CanonHits)
	l["plancache.misses"] = float64(d.pc.Misses)
	l["plancache.invalidations"] = float64(d.pc.Invalidations)
	l["recycler.hits"] = float64(d.rc.Hits)
	l["recycler.subsumed_hits"] = float64(d.rc.SubsumedHits)
	l["recycler.misses"] = float64(d.rc.Misses)
	l["recycler.admission_rejects"] = float64(d.rc.AdmissionRejects)
	l["recycler.evictions"] = float64(d.rc.Evictions)
	l["segment.seals"] = float64(d.seals)
	l["segment.granule_faults"] = float64(d.faults)
	l["segment.granule_evictions"] = float64(d.evictions)
	if d.touches+d.faults > 0 {
		l["segment.granule_hit_share"] = float64(d.touches) / float64(d.touches+d.faults)
	}
	l["runtime.gc_cycles"] = float64(d.gcs)
	l["runtime.gc_pause_total_ms"] = float64(d.pauseNs) / 1e6
	l["runtime.alloc_mb"] = float64(d.allocBytes) / (1 << 20)
}

// coverageBands are the selectivities whose interval coverage is
// printed. None is asserted: the program falls short of nominal on the
// 8% band as well as the selective ones today (README.md), and an
// assertion that fails on every run would leave no benchmark to run.
var coverageBands = []struct {
	name   string
	target float64
}{{"60%", 0.6}, {"8%", 0.08}, {"1%", 0.01}, {"0.1%", 0.001}}

const coverageBoxes = 40

// coverage measures how often the 95% COUNT intervals of every sample
// layer contain the true count, per selectivity band, and prints it
// with the binomial floor (three standard errors below nominal) that
// independent intervals would meet. Boxes of one band overlap, so
// their intervals are correlated and the floor is indicative only.
func (b *bench) coverage(db *sciborq.DB, rb *refbook, pl *pool) error {
	t, err := db.Table(tableName)
	if err != nil {
		return err
	}
	snap := t.Snapshot()
	rows := float64(snap.Len())
	layers := db.Hierarchy(tableName).Ascending()
	for _, band := range coverageBands {
		covered, total := 0, 0
		for found, tries := 0, 0; found < coverageBoxes && tries < 20000; tries++ {
			half := math.Sqrt(band.target*(raMax-raMin)*(decMax-decMin)) / 2 * (0.6 + 0.8*pl.rng.Float64())
			p := pl.box(math.Max(half, gridStep), math.Max(half, gridStep), false)
			truth := float64(rb.answer(p).n)
			if sel := truth / rows; sel < band.target/2 || sel > band.target*2 {
				continue
			}
			found++
			q := sqlparse.MustParse("SELECT COUNT(*) AS n FROM " + tableName + p.where()).Query
			for _, im := range layers {
				v := im.View().Clamp(snap.Len())
				sl := estimate.SelLayer{Name: im.Name(), Base: snap, Positions: v.Positions,
					Weights: v.Weights, CountWeights: v.Pis, BaseRows: int64(snap.Len())}
				ests, err := estimate.AggregateOnSelOpts(sl, q, 0.95, db.ExecOptions())
				if err != nil {
					return err
				}
				total++
				if math.Abs(ests[0].Value()-truth) <= ests[0].Interval.HalfWidth {
					covered++
				}
			}
		}
		cov := float64(covered) / float64(total)
		floor := 0.95 - 3*math.Sqrt(0.95*0.05/float64(total))
		fmt.Printf("coverage band=%s intervals=%d coverage=%.3f nominal=0.95 floor=%.3f below_floor=%t\n",
			band.name, total, cov, floor, cov < floor)
	}
	return nil
}

// checkError is a failed correctness check, as opposed to a failure to
// run the benchmark at all.
type checkError struct{ msg string }

func (e checkError) Error() string { return e.msg }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeLayers times calls into each layer's public functions, one at a
// time on an otherwise idle program, with a span around every call.
func (b *bench) probeLayers(e *env, c *conns, m *mixer) error {
	tr := b.tr
	tr.on.Store(true)
	defer tr.on.Store(false)
	db := e.db
	ctx := context.Background()
	t, err := db.Table(tableName)
	if err != nil {
		return err
	}
	snap := t.Snapshot()
	opts := db.ExecOptions()
	l := b.layer
	fail := func(what string, err error) error { return fmt.Errorf("layer probe %s: %w", what, err) }

	// Transport self time: the round trip minus the same statement's
	// DB.ExecTenant, both warm.
	var httpSelf, wireSelf, execSelf, parse, lookup, miss, hit, skipped []float64
	rec, err := recycler.New(recycler.DefaultBudget)
	if err != nil {
		return err
	}
	for _, p := range m.hotPoint {
		s := aggStmt(clsPoint, p)
		op := tr.newOp()
		root := tr.begin("probe.point", 0, op)
		var errs [3]error
		dbT := medianOf(5, func() time.Duration {
			return tr.timed("sciborq.ExecTenant", root, op, func() { _, errs[0] = db.ExecTenant(ctx, "", s.sql) })
		})
		httpT := medianOf(5, func() time.Duration {
			return tr.timed("http.query", root, op, func() { _, errs[1] = c.h.query(s.sql) })
		})
		wireT := medianOf(5, func() time.Duration {
			return tr.timed("wire.query", root, op, func() { _, errs[2] = c.w.run(&s) })
		})
		for _, err := range errs {
			if err != nil {
				return fail(s.sql, err)
			}
		}
		httpSelf = append(httpSelf, us(httpT-dbT))
		wireSelf = append(wireSelf, us(wireT-dbT))
		var st *sqlparse.Statement
		parse = append(parse, us(medianOf(5, func() time.Duration {
			return tr.timed("sqlparse.Parse", root, op, func() { st, errs[0] = sqlparse.Parse(s.sql) })
		})))
		lookup = append(lookup, us(medianOf(5, func() time.Duration {
			return tr.timed("plancache.CheckSQL", root, op, func() { errs[1] = db.CheckSQL(s.sql) })
		})))
		if errs[0] != nil || errs[1] != nil {
			return fail(s.sql, fmt.Errorf("%v %v", errs[0], errs[1]))
		}
		where := st.Query.Where
		miss = append(miss, us(tr.timed("recycler.Filter.miss", root, op, func() { _, _, errs[0] = rec.Filter(snap, where, opts) })))
		hit = append(hit, us(tr.timed("recycler.Filter.hit", root, op, func() { _, _, errs[1] = rec.Filter(snap, where, opts) })))
		skipped = append(skipped, 1-float64(engine.EstimateScanRows(snap, st.Query.Pred(), opts))/float64(snap.Len()))
		if p.kind == predBox {
			ps := preparedStmt(p)
			wT := medianOf(5, func() time.Duration {
				return tr.timed("wire.execute", root, op, func() { _, errs[0] = c.w.run(&ps) })
			})
			dT := medianOf(5, func() time.Duration {
				return tr.timed("sciborq.ExecStatementTenant", root, op, func() {
					var bound *sqlparse.Statement
					if bound, errs[1] = sqlparse.ParseBound(preparedBase, ps.lits); errs[1] == nil {
						_, errs[1] = db.ExecStatementTenant(ctx, "", bound, preparedBase)
					}
				})
			})
			if errs[0] != nil || errs[1] != nil {
				return fail(ps.sql, fmt.Errorf("%v %v", errs[0], errs[1]))
			}
			execSelf = append(execSelf, us(wT-dT))
		}
		tr.end(root)
	}
	l["server.http_self_us"] = median(httpSelf)
	l["wire.query_self_us"] = median(wireSelf)
	l["wire.execute_self_us"] = median(execSelf)
	l["sqlparse.parse_us"] = median(parse)
	l["plancache.lookup_us"] = median(lookup)
	l["recycler.filter_miss_us"] = median(miss)
	l["recycler.filter_hit_us"] = median(hit)
	l["engine.morsels_skipped_share"] = mean(skipped)

	// Bounded executor and estimator on the hot WITHIN ERROR boxes.
	layers := db.Hierarchy(tableName).Ascending()
	v := layers[1].View().Clamp(snap.Len()) // the 10K-row layer
	sl := estimate.SelLayer{Name: layers[1].Name(), Base: snap, Positions: v.Positions,
		Weights: v.Weights, CountWeights: v.Pis, BaseRows: int64(snap.Len())}
	var boundedSelf, sampleAgg, layerScan []float64
	for _, p := range m.hotErr {
		s := errorStmt(p, 0.05)
		op := tr.newOp()
		root := tr.begin("probe.error_bound", 0, op)
		var res *sciborq.Result
		tr.timed("sciborq.ExecTenant", root, op, func() { res, err = db.ExecTenant(ctx, "", s.sql) })
		if err != nil {
			return fail(s.sql, err)
		}
		self := res.Bounded.Elapsed
		for _, step := range res.Bounded.Trail {
			self -= step.Elapsed
		}
		boundedSelf = append(boundedSelf, us(self))
		q := sqlparse.MustParse(aggStmt(clsPoint, p).sql).Query
		sampleAgg = append(sampleAgg, us(medianOf(5, func() time.Duration {
			return tr.timed("estimate.AggregateOnSelOpts", root, op, func() { _, err = estimate.AggregateOnSelOpts(sl, q, 0.95, opts) })
		})))
		d := medianOf(5, func() time.Duration {
			return tr.timed("engine.FilterSel", root, op, func() { _, _, err = engine.FilterSel(snap, q.Pred(), v.Positions, opts) })
		})
		if err != nil {
			return fail(s.sql, err)
		}
		layerScan = append(layerScan, float64(d.Nanoseconds())/float64(len(v.Positions)))
		tr.end(root)
	}
	l["bounded.self_us"] = median(boundedSelf)
	l["estimate.sample_agg_us"] = median(sampleAgg)
	l["impression.layer_scan_ns_per_sample_row"] = median(layerScan)

	// The exact rung as the bounded executor runs it: the recycler
	// filters the base, then the estimator aggregates the selection.
	base := estimate.Layer{Name: "base", Table: snap, BaseRows: int64(snap.Len()), Exact: true}
	var exactUs, exactKB []float64
	for i := 0; i < 4; i++ {
		s := m.stmt(kErrTight)
		q := sqlparse.MustParse(aggStmt(clsPoint, s.p).sql).Query
		r, err := recycler.New(recycler.DefaultBudget)
		if err != nil {
			return err
		}
		op := tr.newOp()
		before := totalAlloc()
		d := tr.timed("estimate.exact_rung", 0, op, func() {
			sel, _, ferr := r.Filter(snap, q.Where, opts)
			if ferr == nil {
				_, ferr = estimate.AggregateOnFiltered(base, q, 0.95, sel)
			}
			err = ferr
		})
		if err != nil {
			return fail(s.sql, err)
		}
		exactKB = append(exactKB, float64(totalAlloc()-before)/1024)
		exactUs = append(exactUs, us(d))
	}
	l["estimate.exact_rung_us"] = median(exactUs)
	l["estimate.exact_rung_alloc_kb"] = median(exactKB)

	// Engine scans.
	full := sqlparse.MustParse(aggStmt(clsScan, pred{kind: predAll}).sql).Query
	group := sqlparse.MustParse(groupStmt().sql).Query
	rowsF := float64(snap.Len())
	d := medianOf(3, func() time.Duration {
		return tr.timed("engine.RunOnOpts.scan", 0, tr.newOp(), func() { _, err = engine.RunOnOpts(snap, full, opts) })
	})
	l["engine.scan_ns_per_row"] = float64(d.Nanoseconds()) / rowsF
	d = medianOf(3, func() time.Duration {
		return tr.timed("engine.RunOnOpts.groupby", 0, tr.newOp(), func() { _, err = engine.RunOnOpts(snap, group, opts) })
	})
	l["engine.groupby_ns_per_row"] = float64(d.Nanoseconds()) / rowsF
	if err != nil {
		return fail("engine scan", err)
	}

	// Allocation per query over the hot statements.
	var n int
	before := totalAlloc()
	for _, p := range m.hotPoint {
		for _, s := range []stmt{aggStmt(clsPoint, p), errorStmt(m.hotErr[n%len(m.hotErr)], 0.05)} {
			if _, err := db.ExecTenant(ctx, "", s.sql); err != nil {
				return fail(s.sql, err)
			}
			n++
		}
	}
	l["engine.alloc_kb_per_query"] = float64(totalAlloc()-before) / 1024 / float64(n)

	// Wire page encoding of an export result.
	s := m.stmt(kExport)
	res, err := db.ExecTenant(ctx, "", s.sql)
	if err != nil {
		return fail(s.sql, err)
	}
	rt := res.Rows.Table
	var cols []column.Column
	for _, name := range rt.Schema().Names() {
		col, err := rt.Col(name)
		if err != nil {
			return err
		}
		cols = append(cols, col)
	}
	var buf []byte
	var bytesOut int
	d = medianOf(3, func() time.Duration {
		return tr.timed("wire.AppendBatch", 0, tr.newOp(), func() {
			bytesOut = 0
			for lo := 0; lo < rt.Len(); lo += 65536 {
				buf = wire.AppendBatch(buf[:0], cols, lo, min(lo+65536, rt.Len()))
				bytesOut += len(buf)
			}
		})
	})
	l["wire.encode_ns_per_row"] = float64(d.Nanoseconds()) / float64(rt.Len())
	l["wire.bytes_per_row"] = float64(bytesOut) / float64(rt.Len())

	if err := b.probeIngestLayers(db); err != nil {
		return err
	}
	return nil
}

// probeIngestLayers times impression maintenance and segment appends
// on scratch copies, so the live table is left as it is.
func (b *bench) probeIngestLayers(db *sciborq.DB) error {
	tr := b.tr
	l := b.layer
	_, gen, err := newSky(b.seed + 1)
	if err != nil {
		return err
	}
	scratch := table.MustNew("scratch", skyserver.PhotoObjSchema())
	var ims []*impression.Impression
	for i, size := range layerSizes {
		im, err := impression.New(scratch, impression.Config{Name: fmt.Sprintf("scratch/L%d", i), Size: size,
			Policy: impression.Biased, Seed: b.seed + uint64(i), Attrs: []string{"ra", "dec"}, Logger: db.Logger(tableName)})
		if err != nil {
			return err
		}
		ims = append(ims, im)
	}
	h, err := impression.NewHierarchy(ims, 0)
	if err != nil {
		return err
	}
	var maintain []float64
	for i := 0; i < 6; i++ {
		rows := gen.NextBatch(ingestBatchRows)
		n0 := scratch.Len()
		if err := scratch.AppendBatch(rows); err != nil {
			return err
		}
		d := tr.timed("impression.Hierarchy.Offer", 0, tr.newOp(), func() {
			for pos := n0; pos < scratch.Len(); pos++ {
				h.Offer(int32(pos))
			}
		})
		maintain = append(maintain, ms(d))
	}
	l["impression.maintain_ms_per_batch"] = median(maintain[2:]) // after the layers have filled

	dir := filepath.Join(b.work, "scratch-segment")
	st := table.MustNew("scratch", skyserver.PhotoObjSchema())
	store, err := segment.Open(st, segment.Options{Dir: dir})
	if err != nil {
		return err
	}
	var plain, sealing []float64
	for i := 0; i < segment.DefaultSealRows/ingestBatchRows+2; i++ {
		rows := gen.NextBatch(ingestBatchRows)
		seals := store.Stats().Seals
		d := tr.timed("segment.Store.LoadBatch", 0, tr.newOp(), func() { err = store.LoadBatch(rows) })
		if err != nil {
			store.Close()
			return err
		}
		if i == 0 {
			l["segment.wal_bytes_per_row"] = float64(store.Stats().WALBytes) / float64(len(rows))
		}
		if store.Stats().Seals > seals {
			sealing = append(sealing, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
	}
	if err := store.Close(); err != nil {
		return err
	}
	l["segment.load_batch_ms"] = median(plain)
	l["segment.seal_ms"] = median(sealing) - median(plain)
	return os.RemoveAll(dir)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// medianOf runs fn n times and returns the median duration.
func medianOf(n int, fn func() time.Duration) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		ds[i] = float64(fn())
	}
	return time.Duration(median(ds))
}
