package lattice

// Map is the keyed lattice: a map whose values are themselves lattice
// elements, merged pointwise. A G-counter is one: replica → Max count.
type Map[K comparable, V Value[V]] struct {
	m map[K]V
}

// NewMap returns an empty keyed lattice.
func NewMap[K comparable, V Value[V]]() Map[K, V] { return Map[K, V]{m: map[K]V{}} }

// Get returns the value at k and whether it is present.
func (ml Map[K, V]) Get(k K) (V, bool) {
	v, ok := ml.m[k]
	return v, ok
}

// Put returns a new map with v merged into the value at k.
func (ml Map[K, V]) Put(k K, v V) Map[K, V] {
	m := make(map[K]V, len(ml.m)+1)
	for kk, vv := range ml.m {
		m[kk] = vv
	}
	if old, ok := m[k]; ok {
		m[k] = old.Merge(v)
	} else {
		m[k] = v
	}
	return Map[K, V]{m: m}
}

// Keys returns the keys in unspecified order.
func (ml Map[K, V]) Keys() []K {
	out := make([]K, 0, len(ml.m))
	for k := range ml.m {
		out = append(out, k)
	}
	return out
}

// Merge unions keys and merges values pointwise.
func (ml Map[K, V]) Merge(o Map[K, V]) Map[K, V] {
	m := make(map[K]V, len(ml.m)+len(o.m))
	for k, v := range ml.m {
		m[k] = v
	}
	for k, v := range o.m {
		if old, ok := m[k]; ok {
			m[k] = old.Merge(v)
		} else {
			m[k] = v
		}
	}
	return Map[K, V]{m: m}
}

// LessEq reports pointwise order: every key of ml must be present in o with
// a value at least as large.
func (ml Map[K, V]) LessEq(o Map[K, V]) bool {
	for k, v := range ml.m {
		ov, ok := o.m[k]
		if !ok || !v.LessEq(ov) {
			return false
		}
	}
	return true
}

// Equal reports pointwise equality.
func (ml Map[K, V]) Equal(o Map[K, V]) bool {
	if len(ml.m) != len(o.m) {
		return false
	}
	for k, v := range ml.m {
		ov, ok := o.m[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}
