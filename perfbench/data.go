package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"sciborq/internal/skyserver"
	"sciborq/internal/table"
	"sciborq/internal/xrand"
)

const tableName = "PhotoObjAll"

// The sky window of skyserver.DefaultConfig, and the grid every box
// literal is aligned to. Aligned literals let one 2-D histogram answer
// any box exactly: a box covers whole cells, and the few rows lying
// exactly on a grid line are kept aside and tested one by one.
const (
	raMin, raMax   = 120.0, 240.0
	decMin, decMax = 0.0, 60.0
	gridStep       = 0.5
	gridRa         = int((raMax - raMin) / gridStep)
	gridDec        = int((decMax - decMin) / gridStep)
)

// Row layout of skyserver.PhotoObjSchema.
const (
	colRa   = 2
	colDec  = 3
	colR    = 6
	colType = 9
)

var objectTypes = []string{"GALAXY", "STAR", "QSO", "UNKNOWN"}

// predKind is the shape of a pooled WHERE clause.
type predKind int

const (
	predAll  predKind = iota // no WHERE
	predBox                  // ra BETWEEN .. AND dec BETWEEN ..
	predRa                   // ra BETWEEN ..
	predCone                 // fGetNearbyObjEq(ra, dec, radius)
)

// pred is a WHERE clause the benchmark can evaluate in plain Go.
type pred struct {
	kind           predKind
	ra0, ra1       float64
	dec0, dec1     float64
	cra, cdec, rad float64
}

func lit(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func (p pred) where() string {
	switch p.kind {
	case predBox:
		return fmt.Sprintf(" WHERE ra BETWEEN %s AND %s AND dec BETWEEN %s AND %s",
			lit(p.ra0), lit(p.ra1), lit(p.dec0), lit(p.dec1))
	case predRa:
		return fmt.Sprintf(" WHERE ra BETWEEN %s AND %s", lit(p.ra0), lit(p.ra1))
	case predCone:
		return fmt.Sprintf(" WHERE fGetNearbyObjEq(%s, %s, %s)", lit(p.cra), lit(p.cdec), lit(p.rad))
	}
	return ""
}

// match is the reference evaluation: BETWEEN is inclusive at both ends,
// and the cone test is the haversine separation of the SkyServer
// function, written out again here.
func (p pred) match(ra, dec float64) bool {
	switch p.kind {
	case predBox:
		return ra >= p.ra0 && ra <= p.ra1 && dec >= p.dec0 && dec <= p.dec1
	case predRa:
		return ra >= p.ra0 && ra <= p.ra1
	case predCone:
		return separation(p.cra, p.cdec, ra, dec) <= p.rad
	}
	return true
}

func separation(ra1, dec1, ra2, dec2 float64) float64 {
	const d2r = math.Pi / 180
	phi1, phi2 := dec1*d2r, dec2*d2r
	dPhi := (dec2 - dec1) * d2r
	dLam := (ra2 - ra1) * d2r
	a := math.Sin(dPhi/2)*math.Sin(dPhi/2) +
		math.Cos(phi1)*math.Cos(phi2)*math.Sin(dLam/2)*math.Sin(dLam/2)
	if a > 1 {
		a = 1
	}
	return 2 * math.Asin(math.Sqrt(a)) / d2r
}

// agg is a reference answer: COUNT(*) and the running sum behind AVG(r).
type agg struct {
	n    int64
	sumR float64
}

func (a *agg) add(r float64) { a.n++; a.sumR += r }
func (a *agg) merge(o agg)   { a.n += o.n; a.sumR += o.sumR }
func (a agg) avg() float64   { return a.sumR / float64(a.n) }

type sideRow struct{ ra, dec, r float64 }

// refbook accumulates, batch by batch, the answer to every pooled
// query. It never holds the table: a grid histogram answers every
// grid-aligned box and ra range, per-cone counters answer the pooled
// cones, and per-type counters answer GROUP BY type.
type refbook struct {
	cells []agg
	side  []sideRow
	cones map[pred]*agg
	types map[string]*agg
	total agg
}

func newRefbook(cones []pred) *refbook {
	rb := &refbook{cells: make([]agg, gridRa*gridDec), types: map[string]*agg{}, cones: map[pred]*agg{}}
	for _, c := range cones {
		rb.cones[c] = &agg{}
	}
	for _, t := range objectTypes {
		rb.types[t] = &agg{}
	}
	return rb
}

// gridIndex returns the cell holding v and whether v lies exactly on a
// grid line. Offsets and the doubling are exact in binary floating point.
func gridIndex(v, lo float64) (int, bool) {
	x := (v - lo) * (1 / gridStep)
	k := math.Floor(x)
	return int(k), k == x
}

func (rb *refbook) add(rows []table.Row) {
	for _, row := range rows {
		ra, dec, r := row[colRa].(float64), row[colDec].(float64), row[colR].(float64)
		rb.total.add(r)
		rb.types[row[colType].(string)].add(r)
		for c, a := range rb.cones {
			if c.match(ra, dec) {
				a.add(r)
			}
		}
		i, onI := gridIndex(ra, raMin)
		j, onJ := gridIndex(dec, decMin)
		if onI || onJ || i < 0 || i >= gridRa || j < 0 || j >= gridDec {
			rb.side = append(rb.side, sideRow{ra, dec, r})
			continue
		}
		rb.cells[i*gridDec+j].add(r)
	}
}

// answer returns the reference aggregate of p over every row added.
func (rb *refbook) answer(p pred) agg {
	switch p.kind {
	case predAll:
		return rb.total
	case predCone:
		return *rb.cones[p]
	}
	i0, _ := gridIndex(p.ra0, raMin)
	i1, _ := gridIndex(p.ra1, raMin)
	j0, j1 := 0, gridDec
	if p.kind == predBox {
		j0, _ = gridIndex(p.dec0, decMin)
		j1, _ = gridIndex(p.dec1, decMin)
	}
	var a agg
	for i := i0; i < i1; i++ {
		for j := j0; j < j1; j++ {
			a.merge(rb.cells[i*gridDec+j])
		}
	}
	for _, s := range rb.side {
		if p.match(s.ra, s.dec) {
			a.add(s.r)
		}
	}
	return a
}

func (rb *refbook) groups() map[string]agg {
	out := make(map[string]agg, len(rb.types))
	for t, a := range rb.types {
		if a.n > 0 {
			out[t] = *a
		}
	}
	return out
}

// newSky returns the catalogue shell and a row generator for seed.
func newSky(seed uint64) (*skyserver.Database, *skyserver.Generator, error) {
	cfg := skyserver.DefaultConfig(0)
	cfg.Seed = seed
	sky, err := skyserver.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	return sky, sky.Generator(xrand.New(seed ^ 0x5eed)), nil
}

// Operation classes. Each latency metric covers exactly one class.
type class int

const (
	clsPoint  class = iota // selective exact COUNT/AVG
	clsError               // WITHIN ERROR aggregate
	clsTime                // WITHIN TIME aggregate (scored on quality only)
	clsScan                // full or wide exact aggregate, GROUP BY
	clsExport              // streamed wire projection
	numClasses
)

var classNames = [numClasses]string{"point", "error_bound", "time_bound", "scan", "export"}

// stmt is one operation's statement and everything needed to check it.
type stmt struct {
	sql     string
	cls     class
	p       pred
	groupBy bool
	eps     float64
	budget  time.Duration
	// lits, when set, rebinds a prepared box statement's four literals.
	lits []float64
}

const aggList = "COUNT(*) AS n, AVG(r) AS ar"

func aggStmt(cls class, p pred) stmt {
	return stmt{sql: "SELECT " + aggList + " FROM " + tableName + p.where(), cls: cls, p: p}
}

func errorStmt(p pred, eps float64) stmt {
	s := aggStmt(clsError, p)
	s.sql += " WITHIN ERROR " + lit(eps)
	s.eps = eps
	return s
}

func timeStmt(p pred, budget time.Duration) stmt {
	s := stmt{
		sql: fmt.Sprintf("SELECT COUNT(*) AS n FROM %s%s WITHIN TIME %dms", tableName, p.where(), budget.Milliseconds()),
		cls: clsTime, p: p, budget: budget,
	}
	return s
}

func groupStmt() stmt {
	return stmt{sql: "SELECT " + aggList + " FROM " + tableName + " GROUP BY type", cls: clsScan, groupBy: true}
}

func exportStmt(p pred) stmt {
	return stmt{sql: "SELECT objID, ra, dec, r FROM " + tableName + p.where(), cls: clsExport, p: p}
}

// preparedBase is the statement text prepared on every wire session;
// Execute rebinds its four box literals.
var preparedBase = aggStmt(clsPoint, pred{kind: predBox, ra0: 160, ra1: 161, dec0: 20, dec1: 21}).sql

func preparedStmt(p pred) stmt {
	s := aggStmt(clsPoint, p)
	s.lits = []float64{p.ra0, p.ra1, p.dec0, p.dec1}
	return s
}

// pool draws the workload's predicates. Hot predicates concentrate on
// a few focal points (so repeated spellings hit the plan cache alias
// tier and the recycler); fresh() draws a box never drawn before in
// this run (shape tier, recycler miss).
type pool struct {
	rng   *xrand.RNG
	foci  [][2]float64
	seen  map[pred]bool
	tries int
}

func newPool(seed uint64) *pool {
	rng := xrand.New(seed*7919 + 17)
	foci := [][2]float64{{165, 20}, {205, 40}}
	for i := 0; i < 2; i++ {
		foci = append(foci, [2]float64{snap(140 + rng.Float64()*80), snap(10 + rng.Float64()*40)})
	}
	return &pool{rng: rng, foci: foci, seen: map[pred]bool{}}
}

// exhausted lets a draw repeat an earlier predicate once fresh ones
// have become hard to find, so a draw always ends.
func (pl *pool) exhausted() bool {
	pl.tries++
	return pl.tries%1000 == 0
}

func snap(v float64) float64 { return math.Round(v/gridStep) * gridStep }

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// box draws a grid-aligned box of the given half-size range near a
// focal point (or anywhere, when focus is false).
func (pl *pool) box(minHalf, maxHalf float64, focus bool) pred {
	for {
		var cra, cdec float64
		if focus {
			f := pl.foci[pl.rng.Intn(len(pl.foci))]
			cra = f[0] + pl.rng.NormFloat64()*4
			cdec = f[1] + pl.rng.NormFloat64()*4
		} else {
			cra = raMin + pl.rng.Float64()*(raMax-raMin)
			cdec = decMin + pl.rng.Float64()*(decMax-decMin)
		}
		hw := minHalf + pl.rng.Float64()*(maxHalf-minHalf)
		hh := minHalf + pl.rng.Float64()*(maxHalf-minHalf)
		p := pred{kind: predBox,
			ra0: clamp(snap(cra-hw), raMin, raMax), ra1: clamp(snap(cra+hw), raMin, raMax),
			dec0: clamp(snap(cdec-hh), decMin, decMax), dec1: clamp(snap(cdec+hh), decMin, decMax)}
		if p.ra1 > p.ra0 && p.dec1 > p.dec0 && (!pl.seen[p] || pl.exhausted()) {
			pl.seen[p] = true
			return p
		}
	}
}

// raRange draws a fresh ra window of the given width range.
func (pl *pool) raRange(minW, maxW float64) pred {
	for {
		w := snap(minW + pl.rng.Float64()*(maxW-minW))
		lo := snap(raMin + pl.rng.Float64()*(raMax-raMin-w))
		p := pred{kind: predRa, ra0: lo, ra1: lo + w}
		if w > 0 && (!pl.seen[p] || pl.exhausted()) {
			pl.seen[p] = true
			return p
		}
	}
}

func (pl *pool) cone() pred {
	f := pl.foci[pl.rng.Intn(len(pl.foci))]
	return pred{kind: predCone,
		cra:  snap(f[0]+pl.rng.NormFloat64()*3) + 0.25,
		cdec: snap(f[1]+pl.rng.NormFloat64()*3) + 0.25,
		rad:  1 + float64(pl.rng.Intn(4))*0.5}
}
