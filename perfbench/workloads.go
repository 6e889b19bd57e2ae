package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"sciborq"
	"sciborq/internal/skyserver"
	"sciborq/internal/sqlparse"
	"sciborq/internal/table"
)

// Workload sizes. The README records them with the reasons behind them.
const (
	setupRepeats = 3 // set-ups per run; setup_s is their median

	// explore: in-memory PhotoObjAll, open loop over one HTTP and one
	// wire connection.
	exploreBatches   = 40
	exploreBatchRows = 25_000
	exploreRate      = 110.0 // operations per second, both connections together
	timeBudget       = 3 * time.Millisecond
	tightEps         = 0.001

	// archive: durable table reopened from a data directory written
	// beforehand, closed loop of two clients.
	archiveBatches   = 40
	archiveBatchRows = 25_000
	granuleBudget    = 16 << 20

	// ingest: fresh durable table per round, base batches in set-up,
	// then back-to-back batches while an open loop queries.
	ingestBaseBatches = 24
	ingestBatches     = 32
	ingestBatchRows   = 16_384
	ingestRate        = 10.0
)

var layerSizes = []int{100_000, 10_000, 1_000}

// bench holds one run's state and measurements.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string

	tr       *tracer
	rec      *recorder // measured operations (the traced half in a traced run)
	untraced *recorder // traced run only: the untraced half

	setups     []float64 // seconds per set-up
	loadRates  []float64 // rows/s per set of loads
	loadMs     []float64 // per DB.Load call
	reopenMs   []float64
	diskPerRow []float64

	layer map[string]float64
}

func (b *bench) newRecorder(traced bool) *recorder {
	if traced {
		return &recorder{tr: b.tr}
	}
	return &recorder{}
}

// openDB opens the program with the workload's options; dir non-empty
// makes the table durable, with a granule cache of budget bytes (0
// tracks residency without evicting).
func openDB(dir string, budget int64, seed uint64) *sciborq.DB {
	opts := []sciborq.Option{sciborq.WithSeed(seed)}
	if dir != "" {
		opts = append(opts, sciborq.WithDataDir(dir), sciborq.WithGranuleCacheBudget(budget))
	}
	return sciborq.Open(opts...)
}

// prepareTable attaches t, tracks the (ra, dec) workload, logs the hot
// pools' predicates so the biased layers lean towards them, and builds
// the three-layer hierarchy.
func prepareTable(db *sciborq.DB, t *table.Table, m *mixer, backfill bool) error {
	if err := db.AttachTable(t); err != nil {
		return err
	}
	if err := db.TrackWorkload(tableName,
		sciborq.Attr{Name: "ra", Min: raMin, Max: raMax, Beta: 30},
		sciborq.Attr{Name: "dec", Min: decMin, Max: decMax, Beta: 30}); err != nil {
		return err
	}
	lg := db.Logger(tableName)
	for _, ps := range [][]pred{m.hotPoint, m.hotErr, m.hotTime} {
		for _, p := range ps {
			st, err := sqlparse.Parse(aggStmt(clsPoint, p).sql)
			if err != nil {
				return err
			}
			lg.LogQuery(st.Query.Where)
		}
	}
	return db.BuildImpressions(tableName, sciborq.ImpressionConfig{
		Sizes: layerSizes, Policy: sciborq.Biased, Attrs: []string{"ra", "dec"}, Backfill: backfill,
	})
}

// loadBatches generates and loads n batches. Generation and reference
// accumulation are excluded from the returned load time.
func (b *bench) loadBatches(db *sciborq.DB, gen *skyserver.Generator, n, size int, rb *refbook) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		rows := gen.NextBatch(size)
		if rb != nil {
			rb.add(rows)
		}
		start := time.Now()
		err := db.Load(tableName, rows)
		d := time.Since(start)
		if err != nil {
			return total, fmt.Errorf("load batch %d: %w", i, err)
		}
		total += d
		b.loadMs = append(b.loadMs, ms(d))
	}
	return total, nil
}

func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// warm runs every hot statement once over HTTP and once over wire:
// both answers must match the references and each other. It also lets
// the plan cache, the recycler and the WITHIN TIME cost model settle
// before timing starts.
func warm(c *conns, m *mixer, ref refs) error {
	var ss []stmt
	for _, p := range m.hotPoint {
		ss = append(ss, aggStmt(clsPoint, p))
	}
	for _, p := range m.hotErr {
		ss = append(ss, errorStmt(p, 0.05), errorStmt(p, 0.1))
	}
	ss = append(ss, groupStmt(), aggStmt(clsScan, pred{kind: predAll}))
	for i := range ss {
		s := &ss[i]
		h, err := c.run(viaHTTP, s)
		if err != nil {
			return fmt.Errorf("warm-up over HTTP: %q: %w", s.sql, err)
		}
		w, err := c.run(viaWire, s)
		if err != nil {
			return fmt.Errorf("warm-up over wire: %q: %w", s.sql, err)
		}
		if !sameAnswer(h, w) {
			return fmt.Errorf("%q: HTTP and wire answers differ", s.sql)
		}
		lo, hi := ref.window()
		if _, err := check(s, h, ref.expects(s, lo, hi)); err != nil {
			return err
		}
	}
	for i := 0; i < 40; i++ {
		s := timeStmt(m.hotTime[i%len(m.hotTime)], m.budget)
		if _, err := c.run(via(i%2), &s); err != nil {
			return fmt.Errorf("warm-up: %q: %w", s.sql, err)
		}
	}
	return nil
}

// runOpen drives one open-loop lane per pattern. Lanes share the
// arrival rate and are staggered evenly; each sends whole rounds of
// its pattern, enough to fill seconds, unless stop closes first.
func runOpen(rec *recorder, c *conns, m *mixer, lanes [][]slot, rate, seconds float64, ref refs, stop <-chan struct{}) {
	n := len(lanes)
	interval := time.Duration(float64(time.Second) * float64(n) / rate)
	ops := make([][]slotOp, n)
	for i, p := range lanes {
		rounds := int(seconds*rate/float64(n)) / len(p)
		ops[i] = schedule(m, p, rounds)
	}
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for i := range lanes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			openLoop(rec, c, ops[i], start.Add(time.Duration(i)*interval/time.Duration(n)), interval, ref, stop)
		}(i)
	}
	wg.Wait()
}

// runClosed drives one closed-loop client per pattern until seconds
// have passed, each finishing its current round.
func runClosed(rec *recorder, c *conns, m *mixer, clients [][]slot, seconds float64, ref refs) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for _, p := range clients {
		wg.Add(1)
		go func(p []slot) {
			defer wg.Done()
			closedLoop(rec, c, m, p, deadline, ref)
		}(p)
	}
	wg.Wait()
}

// phases runs the measured traffic. A traced run splits it: the first
// half untraced, the second traced, so the difference shows what
// tracing costs.
func (b *bench) phases(run func(rec *recorder, seconds float64)) {
	if !b.trace {
		b.rec = b.newRecorder(false)
		run(b.rec, b.seconds)
		return
	}
	b.untraced = b.newRecorder(false)
	run(b.untraced, b.seconds/2)
	b.rec = b.newRecorder(true)
	b.tr.on.Store(true)
	run(b.rec, b.seconds/2)
	b.tr.on.Store(false)
}

// explore: interactive exploration of an in-memory archive.
func (b *bench) explore() error {
	pl := newPool(b.seed)
	m := newMixer(pl, b.seed, false, timeBudget, tightEps)
	rb := newRefbook(m.cones())
	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			e = nil
		}
		freeMemory()
		sky, gen, err := newSky(b.seed)
		if err != nil {
			return err
		}
		feed := rb
		if i > 0 {
			feed = nil
		}
		start := time.Now()
		db := openDB("", 0, b.seed)
		if err := prepareTable(db, sky.PhotoObjAll, m, false); err != nil {
			return err
		}
		prep := time.Since(start)
		loadT, err := b.loadBatches(db, gen, exploreBatches, exploreBatchRows, feed)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if e, err = serve(db); err != nil {
			return err
		}
		b.setups = append(b.setups, (prep + loadT + time.Since(t0)).Seconds())
		b.loadRates = append(b.loadRates, float64(exploreBatches*exploreBatchRows)/loadT.Seconds())
	}
	defer e.close()
	c, err := dial(e)
	if err != nil {
		return err
	}
	defer c.close()
	ref := staticRefs{rb}
	if err := warm(c, m, ref); err != nil {
		return err
	}
	// Scans here have no WHERE clause: a wide-range selection would pass
	// through the recycler and evict the hot working set this workload
	// is about.
	httpLane := interleave(
		repeat(kPointHot, viaHTTP, 9), repeat(kErrHot, viaHTTP, 4), repeat(kTime, viaHTTP, 4),
		repeat(kPointCold, viaHTTP, 2), repeat(kErrCold, viaHTTP, 1), repeat(kErrTight, viaHTTP, 1),
		repeat(kScanFull, viaHTTP, 1))
	wireLane := interleave(
		repeat(kPointHot, viaWire, 5), repeat(kErrHot, viaWire, 4), repeat(kTime, viaWire, 4),
		repeat(kExecHot, viaWire, 3), repeat(kPointCold, viaWire, 1), repeat(kExecCold, viaWire, 1),
		repeat(kErrCold, viaWire, 1), repeat(kErrTight, viaWire, 1), repeat(kExport, viaWire, 1),
		repeat(kScanFull, viaWire, 1))
	snap := b.snapshot(e)
	b.phases(func(rec *recorder, seconds float64) {
		if rec.tr != nil {
			snap = b.snapshot(e)
		}
		runOpen(rec, c, m, [][]slot{httpLane, wireLane}, exploreRate, seconds, ref, nil)
	})
	b.deltas(snap, b.snapshot(e))
	if err := b.coverage(e.db, rb, pl); err != nil {
		return err
	}
	if b.trace {
		return b.probeLayers(e, c, m)
	}
	return nil
}

func concat(parts ...[]slot) []slot {
	var out []slot
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// archive: restart on a durable table larger than the granule cache,
// then scans and exports from two closed-loop clients.
func (b *bench) archive() error {
	pl := newPool(b.seed)
	m := newMixer(pl, b.seed, false, timeBudget, tightEps)
	rb := newRefbook(m.cones())
	dir := filepath.Join(b.work, "archive")
	sky, gen, err := newSky(b.seed)
	if err != nil {
		return err
	}
	db := openDB(dir, granuleBudget, b.seed)
	if err := db.AttachTable(sky.PhotoObjAll); err != nil {
		return err
	}
	loadT, err := b.loadBatches(db, gen, archiveBatches, archiveBatchRows, rb)
	if err != nil {
		return err
	}
	b.loadRates = append(b.loadRates, float64(archiveBatches*archiveBatchRows)/loadT.Seconds())
	if err := db.Close(); err != nil {
		return err
	}
	if err := b.noteDisk(dir, archiveBatches*archiveBatchRows); err != nil {
		return err
	}

	var e *env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return err
			}
			e = nil
		}
		freeMemory()
		t := table.MustNew(tableName, skyserver.PhotoObjSchema())
		start := time.Now()
		db := openDB(dir, granuleBudget, b.seed)
		if err := prepareTable(db, t, m, true); err != nil {
			return err
		}
		reopen := time.Since(start)
		if !db.Recovered(tableName) || t.Len() != archiveBatches*archiveBatchRows {
			return fmt.Errorf("archive reopen recovered %d rows, want %d", t.Len(), archiveBatches*archiveBatchRows)
		}
		if e, err = serve(db); err != nil {
			return err
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
		b.reopenMs = append(b.reopenMs, ms(reopen))
	}
	defer e.close()
	c, err := dial(e)
	if err != nil {
		return err
	}
	defer c.close()
	ref := staticRefs{rb}
	if err := warm(c, m, ref); err != nil {
		return err
	}
	httpClient := []slot{{kScanFull, viaHTTP}, {kScanWide, viaHTTP}, {kGroup, viaHTTP}, {kErrTight, viaHTTP},
		{kPointCold, viaHTTP}, {kPointHot, viaHTTP}, {kTime, viaHTTP}, {kScanWide, viaHTTP}, {kErrTight, viaHTTP},
		{kTime, viaHTTP}}
	wireClient := []slot{{kExport, viaWire}, {kScanWide, viaWire}, {kErrTight, viaWire}, {kPointHot, viaWire},
		{kExecCold, viaWire}, {kTime, viaWire}, {kPointCold, viaWire}, {kTime, viaWire}}
	snap := b.snapshot(e)
	b.phases(func(rec *recorder, seconds float64) {
		if rec.tr != nil {
			snap = b.snapshot(e)
		}
		runClosed(rec, c, m, [][]slot{httpClient, wireClient}, seconds, ref)
	})
	b.deltas(snap, b.snapshot(e))
	if b.trace {
		return b.probeLayers(e, c, m)
	}
	return nil
}

// ingest: nightly batches into a durable table while queries arrive.
// Each round starts a fresh data directory, loads the base batches in
// set-up, then loads the night's batches back to back under an open
// loop of queries, closes, reopens and checks what was acknowledged.
func (b *bench) ingest() error {
	pl := newPool(b.seed)
	m := newMixer(pl, b.seed, true, timeBudget, tightEps)
	rb := newRefbook(m.cones())
	pr := newPrefixRefs(m.preds())
	total := ingestBaseBatches + ingestBatches
	_, gen, err := newSky(b.seed)
	if err != nil {
		return err
	}
	pr.snapshot(rb)
	for i := 0; i < total; i++ {
		rb.add(gen.NextBatch(ingestBatchRows))
		pr.snapshot(rb)
	}
	// While loads run, an open loop sends point and WITHIN ERROR
	// queries. The other classes run after each round's loads, a fixed
	// number per round, so that every metric is measured without
	// loading the open loop with slow operations.
	lane := interleave(
		repeat(kPointHot, viaHTTP, 4), repeat(kErrHot, viaHTTP, 2), repeat(kPointHot, viaWire, 2),
		repeat(kExecHot, viaWire, 2), repeat(kErrHot, viaWire, 2))
	after := interleave(
		repeat(kScanFull, viaHTTP, 5), repeat(kScanFull, viaWire, 5), repeat(kExport, viaWire, 6),
		repeat(kTime, viaHTTP, 12), repeat(kTime, viaWire, 12))

	var measured float64
	var snaps []statsSnap
	probed := false
	b.phases(func(rec *recorder, seconds float64) {
		for target := measured + seconds; measured < target && err == nil; {
			var d time.Duration
			var s0, s1 statsSnap
			probe := rec.tr != nil && !probed
			probed = probed || probe
			d, s0, s1, err = b.ingestRound(rec, m, pr, lane, after, len(b.setups), probe)
			measured += d.Seconds()
			if rec.tr != nil || !b.trace {
				snaps = append(snaps, s0, s1)
			}
		}
	})
	if err != nil {
		return err
	}
	var sum statsSnap
	for i := 0; i+1 < len(snaps); i += 2 {
		sum.add(snaps[i], snaps[i+1])
	}
	b.deltas(statsSnap{}, sum)
	return nil
}

// ingestRound runs one round and returns the time its loads took.
// With probe set, the layer probes run on the round's full table
// after its loads, before it closes.
func (b *bench) ingestRound(rec *recorder, m *mixer, pr *prefixRefs, lane, after []slot, round int, probe bool) (time.Duration, statsSnap, statsSnap, error) {
	var s0, s1 statsSnap
	dir := filepath.Join(b.work, fmt.Sprintf("ingest-%d", round))
	freeMemory()
	sky, gen, err := newSky(b.seed)
	if err != nil {
		return 0, s0, s1, err
	}
	start := time.Now()
	db := openDB(dir, 0, b.seed)
	if err := prepareTable(db, sky.PhotoObjAll, m, false); err != nil {
		return 0, s0, s1, err
	}
	prep := time.Since(start)
	loadT, err := b.loadBatches(db, gen, ingestBaseBatches, ingestBatchRows, nil)
	if err != nil {
		return 0, s0, s1, err
	}
	t0 := time.Now()
	e, err := serve(db)
	if err != nil {
		return 0, s0, s1, err
	}
	b.setups = append(b.setups, (prep + loadT + time.Since(t0)).Seconds())
	c, err := dial(e)
	if err != nil {
		e.close()
		return 0, s0, s1, err
	}
	pr.acked.Store(ingestBaseBatches)
	pr.started.Store(ingestBaseBatches)
	if err := warm(c, m, pr); err != nil {
		c.close()
		e.close()
		return 0, s0, s1, err
	}

	s0 = b.snapshot(e)
	stop := make(chan struct{})
	var loadErr error
	var loads time.Duration
	begin := time.Now()
	go func() {
		defer close(stop)
		for i := 0; i < ingestBatches; i++ {
			rows := gen.NextBatch(ingestBatchRows)
			pr.started.Add(1)
			t := time.Now()
			err := db.Load(tableName, rows)
			d := time.Since(t)
			if err != nil {
				loadErr = err
				return
			}
			pr.acked.Add(1)
			loads += d
			b.loadMs = append(b.loadMs, ms(d))
		}
	}()
	// The schedule covers far more than a round's loads take; stop ends it.
	runOpen(rec, c, m, [][]slot{lane}, ingestRate, 120, pr, stop)
	<-stop
	wall := time.Since(begin)
	if loadErr == nil {
		for _, sl := range after {
			s := m.stmt(sl.k)
			rec.do(c, sl.v, &s, time.Now(), pr)
		}
	}
	s1 = b.snapshot(e)
	if probe && loadErr == nil {
		if err := b.probeLayers(e, c, m); err != nil {
			c.close()
			e.close()
			return 0, s0, s1, err
		}
	}
	c.close()
	if err := e.close(); err != nil {
		return 0, s0, s1, err
	}
	if loadErr != nil {
		return 0, s0, s1, loadErr
	}
	rows := ingestBatchRows * ingestBatches
	b.loadRates = append(b.loadRates, float64(rows)/loads.Seconds())
	totalRows := ingestBatchRows * (ingestBaseBatches + ingestBatches)
	if err := b.noteDisk(dir, totalRows); err != nil {
		return 0, s0, s1, err
	}
	if err := b.verifyReopen(dir, m, pr, totalRows); err != nil {
		return 0, s0, s1, err
	}
	return wall, s0, s1, os.RemoveAll(dir)
}

// verifyReopen reopens a closed data directory: it must hold exactly
// the acknowledged rows, and the pooled statements must answer as the
// references say.
func (b *bench) verifyReopen(dir string, m *mixer, pr *prefixRefs, rows int) error {
	t := table.MustNew(tableName, skyserver.PhotoObjSchema())
	start := time.Now()
	db := openDB(dir, 0, b.seed)
	if err := db.AttachTable(t); err != nil {
		return err
	}
	b.reopenMs = append(b.reopenMs, ms(time.Since(start)))
	defer db.Close()
	if !db.Recovered(tableName) || t.Len() != rows {
		return fmt.Errorf("reopen of %s recovered %d rows, want %d acknowledged", dir, t.Len(), rows)
	}
	last := int64(len(pr.answers) - 1)
	ss := []stmt{groupStmt(), aggStmt(clsScan, pred{kind: predAll})}
	for _, p := range m.hotPoint {
		ss = append(ss, aggStmt(clsPoint, p))
	}
	for i := range ss {
		res, err := db.Exec(ss[i].sql)
		if err != nil {
			return fmt.Errorf("after reopen: %q: %w", ss[i].sql, err)
		}
		rep := &reply{}
		tb := res.Rows.Table
		names := tb.Schema().Names()
		err = rep.fillAggregates(names, tb.Len(), func(r, k int) (string, float64, error) {
			if names[k] == "type" {
				return tb.RowStrings(int32(r))[k], 0, nil
			}
			col, err := tb.Float64(names[k])
			if err != nil {
				return "", 0, err
			}
			return "", col[r], nil
		})
		if err != nil {
			return err
		}
		if _, err := check(&ss[i], rep, pr.expects(&ss[i], last, last)); err != nil {
			return fmt.Errorf("after reopen: %w", err)
		}
	}
	return nil
}

// noteDisk records the bytes per row a closed data directory holds.
func (b *bench) noteDisk(dir string, rows int) error {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.diskPerRow = append(b.diskPerRow, float64(total)/float64(rows))
	return nil
}
