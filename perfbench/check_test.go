package main

import (
	"math"
	"testing"

	"sciborq/internal/table"
)

// testRows returns generated rows plus rows lying exactly on grid lines,
// which the histogram must keep aside.
func testRows(t *testing.T) []table.Row {
	t.Helper()
	_, gen, err := newSky(42)
	if err != nil {
		t.Fatal(err)
	}
	rows := gen.NextBatch(20_000)
	for _, at := range [][2]float64{{165, 20}, {165.5, 20.25}, {170.25, 22}, {120, 0}} {
		r := append(table.Row(nil), rows[0]...)
		r[colRa], r[colDec] = at[0], at[1]
		rows = append(rows, r)
	}
	return rows
}

func bruteForce(rows []table.Row, p pred) agg {
	var a agg
	for _, r := range rows {
		if p.match(r[colRa].(float64), r[colDec].(float64)) {
			a.add(r[colR].(float64))
		}
	}
	return a
}

func TestRefbookMatchesBruteForce(t *testing.T) {
	rows := testRows(t)
	preds := []pred{
		{kind: predAll},
		{kind: predBox, ra0: 165, ra1: 170.5, dec0: 20, dec1: 22},
		{kind: predBox, ra0: 160, ra1: 165, dec0: 15, dec1: 20},
		{kind: predBox, ra0: 120, ra1: 240, dec0: 0, dec1: 60},
		{kind: predRa, ra0: 165.5, ra1: 170.5},
		{kind: predCone, cra: 165.25, cdec: 20.25, rad: 2},
	}
	rb := newRefbook([]pred{preds[5]})
	rb.add(rows[:10_000])
	rb.add(rows[10_000:])
	for _, p := range preds {
		got, want := rb.answer(p), bruteForce(rows, p)
		if got.n != want.n || !closeRel(got.avg(), want.avg()) {
			t.Errorf("%s: refbook n=%d avg=%v, brute force n=%d avg=%v", p.where(), got.n, got.avg(), want.n, want.avg())
		}
	}
}

// TestCheckCatchesAlteredAnswers feeds the check a correct answer, then
// the same answer altered in one place; every alteration must fail.
func TestCheckCatchesAlteredAnswers(t *testing.T) {
	rows := testRows(t)
	box := pred{kind: predBox, ra0: 160, ra1: 170, dec0: 15, dec1: 25}
	rb := newRefbook(nil)
	rb.add(rows)
	ref := staticRefs{rb}
	truth := rb.answer(box)
	exps := func(s stmt) []expect { return ref.expects(&s, 0, 0) }

	point := aggStmt(clsPoint, box)
	good := &reply{scalars: map[string]float64{"n": float64(truth.n), "ar": truth.avg()}}
	if _, err := check(&point, good, exps(point)); err != nil {
		t.Fatalf("correct point answer rejected: %v", err)
	}
	for name, rep := range map[string]*reply{
		"count off by one": {scalars: map[string]float64{"n": float64(truth.n + 1), "ar": truth.avg()}},
		"avg off by 1e-7":  {scalars: map[string]float64{"n": float64(truth.n), "ar": truth.avg() * (1 + 1e-7)}},
		"no aggregates":    {},
	} {
		if _, err := check(&point, rep, exps(point)); err == nil {
			t.Errorf("point answer with %s passed the check", name)
		}
	}

	eb := errorStmt(box, 0.05)
	exact := &reply{bounded: &boundedReply{Exact: true, BoundMet: true, Estimates: []estimateJSON{
		{Name: "n", Value: float64(truth.n), Exact: true}, {Name: "ar", Value: truth.avg(), Exact: true}}}}
	if _, err := check(&eb, exact, exps(eb)); err != nil {
		t.Fatalf("correct exact-rung answer rejected: %v", err)
	}
	exact.bounded.Estimates[0].Value++
	if _, err := check(&eb, exact, exps(eb)); err == nil {
		t.Error("exact-rung answer with a wrong count passed the check")
	}
	loose := &reply{bounded: &boundedReply{BoundMet: true, Estimates: []estimateJSON{
		{Name: "n", Value: float64(truth.n), RelError: 0.051}, {Name: "ar", Value: truth.avg(), RelError: 0.01}}}}
	if _, err := check(&eb, loose, exps(eb)); err == nil {
		t.Error("sampled answer reporting relative error above ε passed the check")
	}

	window := pred{kind: predRa, ra0: 160, ra1: 170}
	export := exportStmt(window)
	var ra []float64
	for _, r := range rows {
		if v := r[colRa].(float64); window.match(v, 0) {
			ra = append(ra, v)
		}
	}
	if _, err := check(&export, &reply{rows: len(ra), ra: ra}, exps(export)); err != nil {
		t.Fatalf("correct export rejected: %v", err)
	}
	outside := append([]float64(nil), ra...)
	outside[0] = 170.5
	if _, err := check(&export, &reply{rows: len(ra), ra: outside}, exps(export)); err == nil {
		t.Error("export with a row outside its predicate passed the check")
	}
	if _, err := check(&export, &reply{rows: len(ra) - 1, ra: ra[1:]}, exps(export)); err == nil {
		t.Error("export missing a row passed the check")
	}

	group := groupStmt()
	g := map[string]map[string]float64{}
	for k, a := range rb.groups() {
		g[k] = map[string]float64{"n": float64(a.n), "ar": a.avg()}
	}
	if _, err := check(&group, &reply{groups: g}, exps(group)); err != nil {
		t.Fatalf("correct GROUP BY answer rejected: %v", err)
	}
	g["STAR"]["n"]--
	if _, err := check(&group, &reply{groups: g}, exps(group)); err == nil {
		t.Error("GROUP BY answer with a wrong group count passed the check")
	}
}

func TestPrefixRefsAcceptOnlyObservablePrefixes(t *testing.T) {
	rows := testRows(t)
	box := pred{kind: predBox, ra0: 150, ra1: 200, dec0: 0, dec1: 60}
	pr := newPrefixRefs([]pred{box})
	rb := newRefbook(nil)
	pr.snapshot(rb)
	for i := 0; i < 4; i++ {
		rb.add(rows[i*5000 : (i+1)*5000])
		pr.snapshot(rb)
	}
	s := aggStmt(clsPoint, box)
	at := func(k int) *reply {
		a := pr.answers[k][0]
		return &reply{scalars: map[string]float64{"n": float64(a.n), "ar": a.avg()}}
	}
	if _, err := check(&s, at(2), pr.expects(&s, 1, 3)); err != nil {
		t.Fatalf("answer at an observable prefix rejected: %v", err)
	}
	if _, err := check(&s, at(4), pr.expects(&s, 1, 3)); err == nil {
		t.Error("answer from a batch not yet started passed the check")
	}
}

func TestSameAnswerComparesBits(t *testing.T) {
	a := &reply{scalars: map[string]float64{"n": 10, "ar": 18.5}}
	b := &reply{scalars: map[string]float64{"n": 10, "ar": math.Nextafter(18.5, 19)}}
	if !sameAnswer(a, a) || sameAnswer(a, b) {
		t.Error("sameAnswer must accept identical answers and reject a one-ulp difference")
	}
}
