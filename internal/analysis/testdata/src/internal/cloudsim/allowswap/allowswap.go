// Package allowswap has the shape of the plane's op registry: a lock
// and the registry it guards, declared on adjacent lines of one var
// block, both process-wide. globalstate flags each, and
// testdata/swap.allow justifies each with an entry whose line holds the
// other's finding.
package allowswap

import "sync"

// Op is one registered operation.
type Op struct{ Name string }

var (
	regMu    sync.Mutex
	registry []Op
)

// Register appends ops under the lock.
func Register(ops ...Op) {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, ops...)
}
