package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/proto"
)

// dataVersions are the four runtime versions every grid sweeps.
var dataVersions = []core.Version{core.Tmk, core.SPF, core.XHPF, core.PVMe}

// workload is one benchmark input: a spec grid, streamed cold.
type workload struct {
	name string
	// grid expands the workload's specs for the given applications,
	// one block per application in registry order. rng orders the
	// values of the other axes; nil keeps their canonical order.
	grid func(apps []string, rng *rand.Rand) []exp.Spec
}

var workloads = []*workload{
	{name: "mid-grid", grid: midGrid},
	{name: "small-scaling", grid: smallScaling},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// midGrid is the paper's Figure 1/2 shape at mid scale on 8 procs:
// each application under the four versions with the homeless protocol,
// plus TreadMarks under the home-based protocol.
func midGrid(apps []string, rng *rand.Rand) []exp.Spec {
	versions := shuffled(rng, dataVersions)
	var out []exp.Spec
	for _, app := range apps {
		out = append(out, exp.Axes{
			Versions: versions, Protocols: []proto.Name{proto.HomelessLRC},
		}.Specs(exp.Spec{App: app, Procs: 8, Scale: core.MidScale})...)
		out = append(out, exp.Spec{App: app, Version: core.Tmk, Procs: 8,
			Scale: core.MidScale, Protocol: proto.HomeLRC})
	}
	return out
}

// smallScaling sweeps small-scale runs over 8, 16 and 32 procs: compute
// is nearly zero, so scheduling and the runtimes' collectives dominate.
func smallScaling(apps []string, rng *rand.Rand) []exp.Spec {
	return exp.Axes{
		Apps:      apps,
		Versions:  shuffled(rng, dataVersions),
		Procs:     shuffled(rng, []int{8, 16, 32}),
		Protocols: shuffled(rng, []proto.Name{proto.HomelessLRC, proto.HomeLRC}),
	}.Specs(exp.Spec{Scale: core.SmallScale})
}

// shuffled returns xs in an order drawn from rng; a nil rng keeps the
// canonical order. Seeds order the axes' values, never the application
// axis, so every seed sweeps the same grid with the applications in
// registry order, as an Axes sweep does.
func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}
