package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"xtenergy/internal/core"
	"xtenergy/internal/procgen"
	"xtenergy/internal/rtlpower"
	"xtenergy/internal/workloads"
)

// golden.json holds the exact float64 bits (hex) of every result the
// benchmark checks: reference energies of all 60 registry workloads,
// the 21 fitted coefficients, the Table II mean |error|, and the
// macro-model estimate of every registry workload on both explore
// configurations. Every kernel tier computes the same bits, so one file
// serves every host. Regenerate only for an intended change of results:
//
//	go run . --update-golden golden.json
//
//go:embed golden.json
var goldenJSON []byte

type goldenSet struct {
	ReferencePJ map[string]string `json:"reference_pj"`
	Coef        []string          `json:"coef"`
	ModelErrPct string            `json:"model_err_pct"`
	EstimatePJ  map[string]string `json:"estimate_pj"` // key: "<config>/<workload>"
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func loadGolden() (*goldenSet, error) {
	var g goldenSet
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if len(g.ReferencePJ) == 0 || len(g.Coef) != core.NumVars || len(g.EstimatePJ) == 0 {
		return nil, fmt.Errorf("golden.json is incomplete; regenerate it with --update-golden")
	}
	return &g, nil
}

func estimateKey(cfg, name string) string { return cfg + "/" + name }

// coefOK reports whether a fitted model matches the golden coefficients.
func (g *goldenSet) coefOK(m *core.MacroModel) bool {
	for i, c := range m.Coef {
		if bits(c) != g.Coef[i] {
			return false
		}
	}
	return true
}

// flowApps are the Table II applications: the paper's applications, the
// extended validation set and the Reed-Solomon configurations.
func flowApps() []core.Workload {
	var ws []core.Workload
	ws = append(ws, workloads.Applications()...)
	ws = append(ws, workloads.ValidationApplications()...)
	ws = append(ws, workloads.ReedSolomonConfigurations()...)
	return ws
}

// tableIIErr is the mean |estimate - reference| / reference, in percent.
func tableIIErr(est, ref []float64) float64 {
	var s float64
	for i := range est {
		s += math.Abs(est[i]-ref[i]) / ref[i]
	}
	return 100 * s / float64(len(est))
}

// writeGolden recomputes every golden value with the untraced API and
// writes golden.json.
func writeGolden(path string) error {
	ctx := context.Background()
	cfg, tech := procgen.Default(), rtlpower.DefaultTechnology()
	cr, err := core.Characterize(ctx, cfg, tech, workloads.CharacterizationSuite(), core.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	g := goldenSet{ReferencePJ: map[string]string{}, EstimatePJ: map[string]string{}}
	for _, o := range cr.Observations {
		g.ReferencePJ[o.Name] = bits(o.MeasuredPJ)
	}
	for _, c := range cr.Model.Coef {
		g.Coef = append(g.Coef, bits(c))
	}
	var est, ref []float64
	for _, w := range flowApps() {
		r, err := core.ReferenceEnergy(ctx, cfg, tech, w)
		if err != nil {
			return err
		}
		e, err := cr.Model.EstimateWorkload(cfg, w)
		if err != nil {
			return err
		}
		g.ReferencePJ[w.Name] = bits(r.EnergyPJ)
		ref = append(ref, r.EnergyPJ)
		est = append(est, e.EnergyPJ)
	}
	errPct := tableIIErr(est, ref)
	if errPct >= 5 {
		return fmt.Errorf("Table II mean |error| %.2f%% is not below 5%%", errPct)
	}
	g.ModelErrPct = bits(errPct)
	for _, c := range configs() {
		for _, w := range workloads.All() {
			e, err := cr.Model.EstimateWorkload(c, w)
			if err != nil {
				return err
			}
			g.EstimatePJ[estimateKey(c.Name, w.Name)] = bits(e.EnergyPJ)
		}
	}
	out, err := json.MarshalIndent(&g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
