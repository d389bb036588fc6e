package main

import (
	"testing"
	"time"
)

func at(name string, kind spanKind, parent int, start, end time.Duration) span {
	return span{Parent: parent, Kind: kind, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		at("core.flow", kindOp, -1, 0, 100),           // 0
		at("iss.run", kindChild, 0, 10, 60),           // 1
		at("rtlpower.consume", kindChild, 1, 20, 30),  // 2
		at("rtlpower.consume", kindChild, 1, 40, 55),  // 3
		at("core.extract", kindChild, 0, 70, 75),      // 4
		at("xpowerd.report", kindProbe, -1, 200, 290), // 5: not an operation
		// A replayed step parented to a wire request it ran after.
		at("xpowerd.do", kindOp, -1, 300, 340),   // 6
		at("engine.hit", kindChild, 6, 350, 360), // 7
	}
	for i := range spans {
		spans[i].ID = i
	}
	want := []time.Duration{45, 25, 10, 15, 5, 90, 30, 10}
	self := selfTimes(spans)
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %d, want %d", i, spans[i].Name, self[i], want[i])
		}
	}
	// Shares cover the two operation trees (100 + 40), not the probe.
	shares := layerShares(spans, self)
	for layer, w := range map[string]float64{"core": 50, "iss": 25, "rtlpower": 25, "xpowerd": 30, "engine": 10} {
		if got := shares[layer] * 140 / 100; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("share %s = %g%% of 140, want %g", layer, shares[layer], w)
		}
	}
}

func TestSelfTimeFloorsAtZero(t *testing.T) {
	spans := []span{
		at("xpowerd.do", kindOp, -1, 0, 10),
		at("workloads.lookup", kindChild, 0, 20, 35),
	}
	if self := selfTimes(spans); self[0] != 0 || self[1] != 15 {
		t.Errorf("self = %v, want [0 15]", self)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.begin("core.flow", kindOp, -1, 0); id != -1 {
		t.Fatalf("nil recorder begin = %d", id)
	}
	rec.end(rec.child("iss.run", -1))
}
