package campaign

import "sync"

// memoCap bounds every memo in this package: a worker's decoded modules
// and fetched agent snapshots, and the process's restored agents. It is
// the same cap as sim's compiled-program cache, which the module memo's
// pointers key into.
const memoCap = 64

// fifoMemo is a map of at most memoCap entries that evicts its oldest
// entry first. It is safe for concurrent use; the zero value is ready.
type fifoMemo[K comparable, V any] struct {
	mu    sync.Mutex
	m     map[K]V
	order []K
}

func (f *fifoMemo[K, V]) get(k K) (V, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	v, ok := f.m[k]
	return v, ok
}

// add stores v under k unless k already has a value, and returns the value
// k maps to: callers that raced to fill one key all keep the first value.
func (f *fifoMemo[K, V]) add(k K, v V) V {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.m[k]; ok {
		return old
	}
	if f.m == nil {
		f.m = make(map[K]V, memoCap)
	}
	if len(f.order) >= memoCap {
		delete(f.m, f.order[0])
		f.order = f.order[1:]
	}
	f.m[k] = v
	f.order = append(f.order, k)
	return v
}
