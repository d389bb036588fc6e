package main

import (
	"context"
	"testing"
	"time"

	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// The traced legs must compute exactly what the untraced API calls do;
// only then do their spans describe the measured operations.
func TestTracedLegsMatchUntraced(t *testing.T) {
	ctx := context.Background()
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	model := &core.MacroModel{}
	for i := range model.Coef {
		model.Coef[i] = float64(i + 1)
	}
	for _, name := range []string{"gcd", "des", "tp01_alu_mix", "rs_gffold"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		rec := newRecorder(time.Now())
		root := rec.begin("core.flow", kindOp, -1, 0)
		m, err := referenceTraced(ctx, rec, root, cfg, tech, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.MeasureWorkload(ctx, cfg, tech, w)
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Errorf("%s: traced reference leg %v pJ differs from untraced %v pJ", name, m.MeasuredPJ, want.MeasuredPJ)
		}
		ref, err := core.ReferenceEnergy(ctx, cfg, tech, w)
		if err != nil {
			t.Fatal(err)
		}
		if bits(ref.EnergyPJ) != bits(m.MeasuredPJ) {
			t.Errorf("%s: traced energy %v differs from core.ReferenceEnergy %v", name, m.MeasuredPJ, ref.EnergyPJ)
		}
		e, err := estimateTraced(rec, root, model, cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		rec.end(root)
		wantE, err := model.EstimateWorkload(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if e.EnergyPJ != wantE.EnergyPJ || e.Vars != wantE.Vars || e.Cycles != wantE.Cycles {
			t.Errorf("%s: traced estimate %v differs from EstimateWorkload %v", name, e.EnergyPJ, wantE.EnergyPJ)
		}
		calls := byName(rec.spans, selfTimes(rec.spans))
		if cs := calls["rtlpower.consume"]; cs == nil || cs.work != m.Cycles {
			t.Errorf("%s: consume spans cover %v cycles, want %d", name, cs, m.Cycles)
		}
	}
}
