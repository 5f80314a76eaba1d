package wormhole

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/flit"
)

// TestFIFOSlotRoundTrip pushes flits through an input FIFO's packed
// 32-byte slots and checks that peek and pop return them unchanged,
// with their arrival stamps, at the extremes of every narrowed field.
func TestFIFOSlotRoundTrip(t *testing.T) {
	r, err := NewRouter(0, testConfig(1, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	pb := &r.in[0]
	kinds := []flit.Kind{flit.Head, flit.Body, flit.Tail, flit.HeadTail}
	for _, kind := range kinds {
		for _, traced := range []bool{false, true} {
			for _, v := range []int{0, math.MaxInt32} {
				f := flit.Flit{Flow: v, Kind: kind, Traced: traced, Seq: v, Dst: v, PktID: math.MaxInt64 - int64(v)}
				name := fmt.Sprintf("%v/traced=%v/%d", kind, traced, v)
				// A second flit behind the first checks that the
				// head's arrival stamp advances with the pop.
				next := f
				next.Seq, next.Flow, next.Dst = v^1, v^2, v^3
				pb.push(0, f, math.MaxInt64-1)
				pb.push(0, next, 9)
				if got := pb.peek(0); got != f {
					t.Errorf("%s: peek = %+v, want %+v", name, got, f)
				}
				if got := pb.peekArrived(0); got != math.MaxInt64-1 {
					t.Errorf("%s: head arrived = %d, want %d", name, got, int64(math.MaxInt64-1))
				}
				if got := pb.popFlit(0); got != f {
					t.Errorf("%s: pop = %+v, want %+v", name, got, f)
				}
				if got := pb.peekArrived(0); got != 9 {
					t.Errorf("%s: next arrived = %d, want 9", name, got)
				}
				if got := pb.popFlit(0); got != next {
					t.Errorf("%s: second pop = %+v, want %+v", name, got, next)
				}
				if !pb.empty(0) {
					t.Fatalf("%s: FIFO not empty after popping both flits", name)
				}
			}
		}
	}
}

// TestInjectRejectsUnpackableFlit checks that a flit whose Flow, Seq or
// Dst does not fit the FIFO slot's int32 panics at Router.Inject,
// naming the field, and that the int32 extremes are accepted.
func TestInjectRejectsUnpackableFlit(t *testing.T) {
	cfg := testConfig(1, 1, 4)
	cfg.Route = func(int) int { return 0 }
	ok := flit.Flit{Kind: flit.HeadTail, Flow: math.MaxInt32, Seq: math.MinInt32, Dst: math.MaxInt32}
	r, err := NewRouter(0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Inject(0, 0, ok, 0) {
		t.Fatal("Inject refused a flit at the int32 extremes into an empty FIFO")
	}
	for _, c := range []struct {
		field string
		set   func(*flit.Flit)
	}{
		{"Flow", func(f *flit.Flit) { f.Flow = math.MaxInt32 + 1 }},
		{"Seq", func(f *flit.Flit) { f.Seq = math.MinInt32 - 1 }},
		{"Dst", func(f *flit.Flit) { f.Dst = math.MaxInt32 + 1 }},
	} {
		f := ok
		c.set(&f)
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "flit "+c.field+" ") {
					t.Errorf("%s out of range: panic %q does not name the field", c.field, msg)
				}
			}()
			r.Inject(0, 0, f, 1)
		}()
	}
	if n := r.in[0].len(0); n != 1 {
		t.Errorf("FIFO holds %d flits after the rejected injections, want 1", n)
	}
}
