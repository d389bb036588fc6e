package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"xtenergy/internal/workloads"
)

func genBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	ex := exploreRound(seed, 3, workloads.All())
	dr := daemonRound(seed, 3, registryRequests(workloads.Names()))
	b, err := json.Marshal(map[string]any{"explore": ex, "daemon": dr})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerationIsDeterministic(t *testing.T) {
	a, b := genBytes(t, 7), genBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different programs or requests")
	}
	if bytes.Equal(a, genBytes(t, 8)) {
		t.Fatal("different seeds generated the same programs and requests")
	}
}

func TestRoundsHaveTheirMix(t *testing.T) {
	reg := workloads.All()
	for _, round := range [][]candidate{exploreRound(1, 0, reg), exploreRound(1, 1, reg)} {
		fresh := 0
		for i := range round {
			if round[i].fresh() {
				fresh++
			}
		}
		if len(round) != 2*len(reg)+freshPerRound || fresh != freshPerRound {
			t.Errorf("explore round: %d candidates, %d fresh", len(round), fresh)
		}
	}
	req := registryRequests(workloads.Names())
	for _, round := range [][]dreq{daemonRound(1, 0, req), daemonRound(1, 1, req)} {
		fresh := 0
		for _, r := range round {
			if r.Reg < 0 {
				fresh++
				if r.Req.Source == "" || r.Req.Workload != "" {
					t.Errorf("fresh request names no inline program: %+v", r.Req)
				}
			}
		}
		if len(round) != daemonRepeats+daemonFresh || fresh != daemonFresh {
			t.Errorf("daemon round: %d requests, %d fresh", len(round), fresh)
		}
	}
}
