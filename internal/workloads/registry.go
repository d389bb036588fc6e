package workloads

import (
	"slices"
	"sort"
	"sync"

	"xtenergy/internal/core"
)

// registry is the built-in workload set, generated once per process:
// building it formats every program's source, which costs
// milliseconds, while a lookup should cost what a map read does. It
// holds about 0.5 MB, mostly sources, for the life of the process.
type registry struct {
	all []core.Workload
	idx map[string]int // name → position in all
	// apps is the [lo, hi) span of all holding the Table II
	// applications.
	apps [2]int
}

var shared = sync.OnceValue(func() *registry {
	r := &registry{}
	r.all = append(r.all, CharacterizationSuite()...)
	r.apps[0] = len(r.all)
	r.all = append(r.all, Applications()...)
	r.apps[1] = len(r.all)
	r.all = append(r.all, ValidationApplications()...)
	r.all = append(r.all, ReedSolomonConfigurations()...)
	r.idx = make(map[string]int, len(r.all))
	for i, w := range r.all {
		r.idx[w.Name] = i // names are unique (TestRegistry)
	}
	return r
})

// All returns every built-in workload: the characterization suite, the
// Table II applications, the extended validation applications, and the
// Reed-Solomon configurations. The slice is the caller's own, but the
// workloads in it share their Ext and LintExempt with the process-wide
// registry: treat those as read-only, as with the bytes memo.Store.Do
// returns.
func All() []core.Workload {
	return slices.Clone(shared().all)
}

// ByName finds any built-in workload by name. The returned workload's
// Ext and LintExempt are shared with the registry and must not be
// mutated.
func ByName(name string) (core.Workload, bool) {
	r := shared()
	i, ok := r.idx[name]
	if !ok {
		return core.Workload{}, false
	}
	return r.all[i], true
}

// ApplicationByName returns the named Table II application, under the
// same read-only contract as ByName.
func ApplicationByName(name string) (core.Workload, bool) {
	r := shared()
	i, ok := r.idx[name]
	if !ok || i < r.apps[0] || i >= r.apps[1] {
		return core.Workload{}, false
	}
	return r.all[i], true
}

// Names returns the sorted names of all built-in workloads.
func Names() []string {
	all := shared().all
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	sort.Strings(out)
	return out
}
