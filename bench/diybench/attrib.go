package main

import "strings"

// layers are the per-layer ledger's rows: the repro/internal packages
// the workloads reach, named by their path under internal/ with dots,
// plus four catch-alls. "other" takes any other internal package,
// "bench" the harness, "gc" the runtime's background GC workers and
// "runtime" every remaining stack, which has no module frame.
var layers = []string{
	"workload", "fleet", "fleet.telemetry", "core", "experiments",
	"cloudsim.clock", "cloudsim.sim", "cloudsim.plane", "cloudsim.iam", "cloudsim.netsim",
	"cloudsim.lambda", "cloudsim.s3", "cloudsim.kms", "cloudsim.sqs", "cloudsim.dynamo",
	"cloudsim.ses", "cloudsim.gateway", "cloudsim.metrics", "cloudsim.logs", "cloudsim.trace",
	"cloudsim.sortutil",
	"apps.chat", "apps.email", "apps.filetransfer", "apps.iot",
	"proto.xmpp", "crypto.envelope", "crypto.attest", "spam", "pricing",
	"other", "bench", "gc", "runtime",
}

const internalPrefix = "repro/internal/"

// gcWorkers are the runtime's background GC goroutines' root
// functions.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// libs are library packages whose inclusive time the ledger reports:
// a sample counts toward a library if any frame of its stack matches.
// They overlap the layers and each other.
var libs = []struct {
	name  string
	match func(fn, pkg string) bool
}{
	{"encoding_json", func(_, pkg string) bool { return pkg == "encoding/json" }},
	{"encoding_xml", func(_, pkg string) bool { return pkg == "encoding/xml" }},
	{"crypto", func(_, pkg string) bool {
		return strings.HasPrefix(pkg, "crypto/") || strings.HasPrefix(pkg, "vendor/golang.org/x/crypto/")
	}},
	// Every math/rand.NewSource and Seed call lands here: the 607-word
	// reseed of an additive lagged Fibonacci source.
	{"rand_seed", func(fn, _ string) bool { return fn == "math/rand.(*rngSource).Seed" }},
	{"mallocgc", func(fn, _ string) bool { return fn == "runtime.mallocgc" }},
}

// pkgOf returns the import path of a function symbol such as
// "repro/internal/apps/chat.(*App).updateRoom": everything before the
// first dot after the last slash, ignoring any type-parameter list.
func pkgOf(fn string) string {
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf attributes a stack (innermost frame first) to the layer of
// its innermost module frame, so standard-library and allocator time
// lands on the layer that called into it.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg := pkgOf(fn)
		switch {
		case strings.HasPrefix(pkg, internalPrefix):
			return internalLayer(pkg)
		case pkg == "main" || strings.HasPrefix(pkg, "repro/bench"):
			return "bench"
		}
	}
	for _, fn := range stack {
		if gcWorkers[fn] {
			return "gc"
		}
	}
	return "runtime"
}

var knownLayers = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

func internalLayer(pkg string) string {
	name := strings.ReplaceAll(strings.TrimPrefix(pkg, internalPrefix), "/", ".")
	if knownLayers[name] {
		return name
	}
	return "other"
}

// attribution splits one sample type of a profile three ways.
type attribution struct {
	layer   map[string]int64 // exclusive: sums to total
	lib     map[string]int64 // inclusive, overlapping
	phase   map[string]int64 // by the fleet's "phase" pprof label
	total   int64
	samples int
}

// attribute sums sample value vi over every sample that keep accepts.
func attribute(p *profile, vi int, keep func(sample) bool) attribution {
	a := attribution{layer: make(map[string]int64), lib: make(map[string]int64), phase: make(map[string]int64)}
	for _, s := range p.samples {
		if keep != nil && !keep(s) {
			continue
		}
		v := s.values[vi]
		a.total += v
		a.samples++
		a.layer[layerOf(s.stack)] += v
		if ph, ok := s.labels["phase"]; ok {
			a.phase[ph] += v
		}
		for _, l := range libs {
			for _, fn := range s.stack {
				if l.match(fn, pkgOf(fn)) {
					a.lib[l.name] += v
					break
				}
			}
		}
	}
	return a
}
