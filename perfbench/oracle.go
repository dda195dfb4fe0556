package main

import (
	"errors"
	"fmt"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/store"
)

// oracle answers box queries straight from the synthetic record set with a
// coarse bucket grid and a per-record containment test — no curve
// decomposition and no store code, so it shares no logic with the answers
// it checks.
type oracle struct {
	c       curve.Curve
	shift   uint      // bucket side is 2^shift cells
	per     uint32    // buckets per dimension
	buckets [][]int32 // record indices per bucket
	recs    []store.Record
}

// newOracle indexes recs, the record set the daemon under test holds.
func newOracle(c curve.Curve, recs []store.Record) *oracle {
	u := c.Universe()
	b := uint(u.K())
	for b > 0 && uint(u.D())*b > 12 { // at most 4096 buckets
		b--
	}
	o := &oracle{c: c, shift: uint(u.K()) - b, per: 1 << b}
	n := 1
	for i := 0; i < u.D(); i++ {
		n *= int(o.per)
	}
	o.buckets = make([][]int32, n)
	o.recs = recs
	for i, r := range recs {
		bi := o.bucketOf(r.Point)
		o.buckets[bi] = append(o.buckets[bi], int32(i))
	}
	return o
}

func (o *oracle) bucketOf(p grid.Point) int {
	bi := 0
	for d := len(p) - 1; d >= 0; d-- {
		bi = bi*int(o.per) + int(p[d]>>o.shift)
	}
	return bi
}

// answer returns every record inside b.
func (o *oracle) answer(b query.Box) []store.Record {
	d := len(b.Lo)
	lo := make([]uint32, d)
	hi := make([]uint32, d)
	for i := 0; i < d; i++ {
		lo[i], hi[i] = b.Lo[i]>>o.shift, b.Hi[i]>>o.shift
	}
	cur := append([]uint32(nil), lo...)
	var out []store.Record
	for {
		bi := 0
		for i := d - 1; i >= 0; i-- {
			bi = bi*int(o.per) + int(cur[i])
		}
		for _, ri := range o.buckets[bi] {
			if b.Contains(o.recs[ri].Point) {
				out = append(out, o.recs[ri])
			}
		}
		i := 0
		for ; i < d; i++ {
			if cur[i] < hi[i] {
				cur[i]++
				break
			}
			cur[i] = lo[i]
		}
		if i == d {
			return out
		}
	}
}

// answerCheck is one observed read and what it must contain.
type answerCheck struct {
	box      query.Box
	got      []store.Record
	complete bool  // the trailer reported no dark intervals
	pages    int64 // the trailer's pages-read count
	// want is every record the box holds, keyed by payload when checked:
	// payloads are unique across the synthetic set.
	want []store.Record
}

var errWrongAnswer = errors.New("wrong answer")

// verify checks one read record-for-record: the trailer says complete and
// counts the pages the records came from, records arrive in nondecreasing
// curve-key order, every one lies in the box, and every wanted record is
// present exactly once with nothing else beside it.
func (o *oracle) verify(a answerCheck) error {
	if !a.complete {
		return fmt.Errorf("%w: box %v: trailer reports dark intervals", errWrongAnswer, a.box)
	}
	if a.pages <= 0 && len(a.got) > 0 {
		return fmt.Errorf("%w: box %v: trailer counts %d pages read for %d records", errWrongAnswer, a.box, a.pages, len(a.got))
	}
	want := make(map[uint64]grid.Point, len(a.want))
	for _, r := range a.want {
		want[r.Payload] = r.Point
	}
	var prev uint64
	seen := make(map[uint64]bool, len(a.got))
	for i, r := range a.got {
		k := o.c.Index(r.Point)
		if i > 0 && k < prev {
			return fmt.Errorf("%w: box %v: record %d out of curve order", errWrongAnswer, a.box, i)
		}
		prev = k
		if !a.box.Contains(r.Point) {
			return fmt.Errorf("%w: box %v: record %v outside the box", errWrongAnswer, a.box, r.Point)
		}
		if seen[r.Payload] {
			return fmt.Errorf("%w: box %v: payload %d returned twice", errWrongAnswer, a.box, r.Payload)
		}
		seen[r.Payload] = true
		if p, ok := want[r.Payload]; !ok || !p.Equal(r.Point) {
			return fmt.Errorf("%w: box %v: unexpected record %v/%d", errWrongAnswer, a.box, r.Point, r.Payload)
		}
	}
	for pl := range want {
		if !seen[pl] {
			return fmt.Errorf("%w: box %v: missing record with payload %d (%d returned, %d wanted)",
				errWrongAnswer, a.box, pl, len(a.got), len(a.want))
		}
	}
	return nil
}
