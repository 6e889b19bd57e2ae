package main

import (
	"fmt"
	"math"
)

// expect is one reference answer an operation may legitimately return:
// a single one on a static table, one per acknowledged batch prefix
// while loads run (a load becomes visible batch-atomically).
type expect struct {
	a      agg
	groups map[string]agg
}

const floatTol = 1e-9

func closeRel(got, want float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= floatTol*math.Abs(want)
}

func matchAgg(n, ar float64, want agg) bool {
	return n == float64(want.n) && closeRel(ar, want.avg())
}

// check verifies rep against the references. For WITHIN TIME answers
// it returns the answer's relative error against the closest reference
// (its quality score); -1 otherwise.
func check(s *stmt, rep *reply, exps []expect) (float64, error) {
	if len(exps) == 0 {
		return -1, fmt.Errorf("no reference for %q", s.sql)
	}
	switch s.cls {
	case clsPoint, clsScan:
		if s.groupBy {
			for _, e := range exps {
				if matchGroups(rep.groups, e.groups) {
					return -1, nil
				}
			}
			return -1, fmt.Errorf("%q: groups %v match no reference", s.sql, rep.groups)
		}
		if rep.scalars == nil {
			return -1, fmt.Errorf("%q: not an aggregate result", s.sql)
		}
		for _, e := range exps {
			if matchAgg(rep.scalars["n"], rep.scalars["ar"], e.a) {
				return -1, nil
			}
		}
		return -1, fmt.Errorf("%q: n=%v ar=%v, reference n=%d ar=%v",
			s.sql, rep.scalars["n"], rep.scalars["ar"], exps[0].a.n, exps[0].a.avg())
	case clsExport:
		ok := false
		for _, e := range exps {
			ok = ok || int64(rep.rows) == e.a.n
		}
		if !ok || len(rep.ra) != rep.rows {
			return -1, fmt.Errorf("%q: %d rows (%d ra values), reference %d", s.sql, rep.rows, len(rep.ra), exps[0].a.n)
		}
		for _, ra := range rep.ra {
			if ra < s.p.ra0 || ra > s.p.ra1 {
				return -1, fmt.Errorf("%q: row with ra=%v outside the predicate", s.sql, ra)
			}
		}
		return -1, nil
	case clsError:
		b := rep.bounded
		if b == nil || !b.BoundMet {
			return -1, fmt.Errorf("%q: no bounded answer meeting its bound: %+v", s.sql, b)
		}
		n, okN := b.estimate("n")
		ar, okA := b.estimate("ar")
		if !okN || !okA {
			return -1, fmt.Errorf("%q: estimates missing: %+v", s.sql, b.Estimates)
		}
		if b.Exact || n.Exact {
			for _, e := range exps {
				if matchAgg(n.Value, ar.Value, e.a) {
					return -1, nil
				}
			}
			return -1, fmt.Errorf("%q: exact n=%v ar=%v, reference n=%d ar=%v", s.sql, n.Value, ar.Value, exps[0].a.n, exps[0].a.avg())
		}
		for _, est := range b.Estimates {
			if est.RelError > s.eps || math.IsNaN(est.RelError) {
				return -1, fmt.Errorf("%q: %s reports relative error %v > %v", s.sql, est.Name, est.RelError, s.eps)
			}
		}
		return -1, nil
	case clsTime:
		b := rep.bounded
		if b == nil {
			return -1, fmt.Errorf("%q: no bounded answer", s.sql)
		}
		n, ok := b.estimate("n")
		if !ok {
			return -1, fmt.Errorf("%q: estimate n missing", s.sql)
		}
		best := math.Inf(1)
		for _, e := range exps {
			best = math.Min(best, math.Abs(n.Value-float64(e.a.n))/float64(e.a.n))
		}
		if (b.Exact || n.Exact) && best != 0 {
			return -1, fmt.Errorf("%q: exact n=%v, reference %d", s.sql, n.Value, exps[0].a.n)
		}
		return best, nil
	}
	return -1, fmt.Errorf("unknown class %d", s.cls)
}

func matchGroups(got map[string]map[string]float64, want map[string]agg) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok || !matchAgg(g["n"], g["ar"], w) {
			return false
		}
	}
	return true
}

// sameAnswer reports whether two transports returned identical answers
// to one statement: aggregates and estimates bit for bit, projections
// row for row.
func sameAnswer(a, b *reply) bool {
	if a.rows != b.rows || len(a.scalars) != len(b.scalars) || len(a.groups) != len(b.groups) {
		return false
	}
	for k, v := range a.scalars {
		if w, ok := b.scalars[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	for k, g := range a.groups {
		h := b.groups[k]
		for c, v := range g {
			if math.Float64bits(v) != math.Float64bits(h[c]) {
				return false
			}
		}
	}
	if (a.bounded == nil) != (b.bounded == nil) {
		return false
	}
	if a.bounded != nil {
		x, y := a.bounded, b.bounded
		if x.Layer != y.Layer || x.Exact != y.Exact || len(x.Estimates) != len(y.Estimates) {
			return false
		}
		for i := range x.Estimates {
			if x.Estimates[i] != y.Estimates[i] {
				return false
			}
		}
	}
	return true
}
