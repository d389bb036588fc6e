package workloads

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"xtenergy/internal/core"
)

func TestByNameDoesNotAllocate(t *testing.T) {
	ByName("rs_base") // build the registry outside the measurement
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := ByName("rs_base"); !ok {
			t.Fatal("rs_base not found")
		}
	}); n != 0 {
		t.Fatalf("ByName allocates %v times per call, want 0", n)
	}
}

// TestAllReturnsCallerOwnedSlice reorders and overwrites the slice All
// returned; neither a later All nor ByName may see it.
func TestAllReturnsCallerOwnedSlice(t *testing.T) {
	want := slices.Clone(All()) // a snapshot even if All shared its slice
	mine := All()
	slices.Reverse(mine)
	mine[0] = core.Workload{Name: "rs_base", Source: "clobbered"}
	if got := All(); !reflect.DeepEqual(got, want) {
		t.Fatal("mutating one All() result changed a later All()")
	}
	if w, ok := ByName("rs_base"); !ok || w.Source != ReedSolomonBase().Source {
		t.Fatal("mutating an All() result changed ByName")
	}
}

// TestRegistryConcurrentReaders runs ByName, All and Names from 8
// goroutines at once and compares each against a serial pass.
func TestRegistryConcurrentReaders(t *testing.T) {
	serial := All()
	names := Names()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := All(); !reflect.DeepEqual(got, serial) {
				t.Error("concurrent All() disagrees with the serial pass")
			}
			if got := Names(); !slices.Equal(got, names) {
				t.Error("concurrent Names() disagrees with the serial pass")
			}
			for _, w := range serial {
				got, ok := ByName(w.Name)
				if !ok || !reflect.DeepEqual(got, w) {
					t.Errorf("concurrent ByName(%q) disagrees with the serial pass", w.Name)
				}
			}
		}()
	}
	wg.Wait()
}
