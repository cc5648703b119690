package plane

import "sort"

// Ops returns the registered operations sorted by service and method.
func Ops() []Op {
	regMu.Lock()
	defer regMu.Unlock()
	out := append([]Op(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Method < out[j].Method
	})
	return out
}
