package main

import (
	"context"
	"errors"
	"testing"

	"repro/internal/chaos"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
)

// fixture answers boxes through the real service and through the oracle.
func fixture(t *testing.T) (*oracle, *service.Service, []query.Box) {
	t.Helper()
	u, err := grid.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := curve.ByName("hilbert", u, 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := chaos.SyntheticRecords(u, 1, 20000)
	svc, err := service.New(c, recs, service.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	r := rng{s: 3}
	var boxes []query.Box
	for i := 0; i < 50; i++ {
		boxes = append(boxes, placeBox(&r, u, boxSides(&r, u, 64)))
	}
	return newOracle(c, recs), svc, boxes
}

func served(t *testing.T, svc *service.Service, b query.Box) ([]store.Record, int64) {
	t.Helper()
	res, err := svc.Range(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	return res.Records, res.PagesRead
}

func TestOracleAgreesWithService(t *testing.T) {
	or, svc, boxes := fixture(t)
	nonEmpty := 0
	for _, b := range boxes {
		got, pages := served(t, svc, b)
		if len(got) > 0 {
			nonEmpty++
		}
		if err := or.verify(answerCheck{box: b, got: got, complete: true, pages: pages, want: or.answer(b)}); err != nil {
			t.Fatal(err)
		}
	}
	if nonEmpty < len(boxes)/2 {
		t.Fatalf("only %d of %d boxes returned records: the check is vacuous", nonEmpty, len(boxes))
	}
}

// TestCorruptedAnswersAreCaught is the self-test of the answer check: every
// kind of damage a server could do to a correct answer must fail it.
func TestCorruptedAnswersAreCaught(t *testing.T) {
	or, svc, boxes := fixture(t)
	var b query.Box
	var good []store.Record
	var pages int64
	for _, bx := range boxes {
		if got, p := served(t, svc, bx); len(got) >= 3 {
			b, good, pages = bx, got, p
			break
		}
	}
	if good == nil {
		t.Fatal("no box with three records")
	}
	clone := func() []store.Record {
		out := make([]store.Record, len(good))
		for i, r := range good {
			out[i] = store.Record{Point: r.Point.Clone(), Payload: r.Payload}
		}
		return out
	}
	outside := b.Hi.Clone()
	outside[0] = (outside[0] + 1) % or.c.Universe().Side()
	if b.Contains(outside) {
		outside[0] = b.Lo[0] - 1
	}
	if err := or.verify(answerCheck{box: b, got: good, complete: true, pages: pages, want: or.answer(b)}); err != nil {
		t.Fatalf("the undamaged answer fails: %v", err)
	}
	for name, damage := range map[string]func() ([]store.Record, bool){
		"payload flipped": func() ([]store.Record, bool) {
			g := clone()
			g[1].Payload ^= 1
			return g, true
		},
		"record dropped": func() ([]store.Record, bool) { return clone()[1:], true },
		"record duplicated": func() ([]store.Record, bool) {
			g := clone()
			return append(g[:2:2], g[1:]...), true
		},
		"order swapped": func() ([]store.Record, bool) {
			g := clone()
			for i := 1; i < len(g); i++ {
				if or.c.Index(g[i].Point) != or.c.Index(g[0].Point) {
					g[0], g[i] = g[i], g[0]
					break
				}
			}
			return g, true
		},
		"point moved out of the box": func() ([]store.Record, bool) {
			g := clone()
			g[0].Point = outside
			return g, true
		},
		"trailer reports dark intervals": func() ([]store.Record, bool) { return clone(), false },
	} {
		got, complete := damage()
		err := or.verify(answerCheck{box: b, got: got, complete: complete, pages: pages, want: or.answer(b)})
		if !errors.Is(err, errWrongAnswer) {
			t.Errorf("%s: not caught (err = %v)", name, err)
		}
	}
	err := or.verify(answerCheck{box: b, got: clone(), complete: true, pages: 0, want: or.answer(b)})
	if !errors.Is(err, errWrongAnswer) {
		t.Errorf("trailer counting no pages read: not caught (err = %v)", err)
	}
}
