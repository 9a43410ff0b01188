// Package storage provides the physical data structures the data-model
// facet (§5) chooses among: an in-memory B+-tree (ordered access), a hash
// index (point access), and heap rows — the "containers and access paths"
// of §5.1. The Chestnut-style synthesizer (package chestnut) picks between
// them using a cost model.
package storage

import "sort"

const btreeOrder = 32 // max keys per node

// BTree is an in-memory B+-tree keyed by string with opaque values. Leaves
// are linked for range scans.
type BTree struct {
	root *btNode
	size int
}

type btNode struct {
	leaf     bool
	keys     []string
	children []*btNode // internal nodes
	values   []any     // leaves
	next     *btNode   // leaf chain
}

// NewBTree returns an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btNode{leaf: true}}
}

// Len returns the number of keys.
func (t *BTree) Len() int { return t.size }

// Get returns the value for key.
func (t *BTree) Get(key string) (any, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return n.values[i], true
	}
	return nil, false
}

// childIndex picks the subtree for key: keys[i] is the smallest key of
// children[i+1].
func childIndex(keys []string, key string) int {
	return sort.Search(len(keys), func(i int) bool { return key < keys[i] })
}

// Put inserts or updates key.
func (t *BTree) Put(key string, val any) {
	midKey, right := t.root.insert(key, val, t)
	if right != nil {
		t.root = &btNode{
			keys:     []string{midKey},
			children: []*btNode{t.root, right},
		}
	}
}

// insert returns a (separator, right-sibling) pair when the node split.
func (n *btNode) insert(key string, val any, t *BTree) (string, *btNode) {
	if n.leaf {
		i := sort.SearchStrings(n.keys, key)
		if i < len(n.keys) && n.keys[i] == key {
			n.values[i] = val
			return "", nil
		}
		n.keys = append(n.keys, "")
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = val
		t.size++
		if len(n.keys) > btreeOrder {
			return n.splitLeaf()
		}
		return "", nil
	}
	ci := childIndex(n.keys, key)
	midKey, right := n.children[ci].insert(key, val, t)
	if right == nil {
		return "", nil
	}
	n.keys = append(n.keys, "")
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = midKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) > btreeOrder {
		return n.splitInternal()
	}
	return "", nil
}

func (n *btNode) splitLeaf() (string, *btNode) {
	mid := len(n.keys) / 2
	right := &btNode{
		leaf:   true,
		keys:   append([]string{}, n.keys[mid:]...),
		values: append([]any{}, n.values[mid:]...),
		next:   n.next,
	}
	n.keys = n.keys[:mid]
	n.values = n.values[:mid]
	n.next = right
	return right.keys[0], right
}

func (n *btNode) splitInternal() (string, *btNode) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &btNode{
		keys:     append([]string{}, n.keys[mid+1:]...),
		children: append([]*btNode{}, n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sep, right
}

// Scan visits all (key, value) pairs with startKey <= key < endKey in key
// order; an empty endKey means "to the end". Return false from f to stop.
func (t *BTree) Scan(startKey, endKey string, f func(key string, val any) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, startKey)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < startKey {
				continue
			}
			if endKey != "" && k >= endKey {
				return
			}
			if !f(k, n.values[i]) {
				return
			}
		}
		n = n.next
	}
}

// Min returns the smallest key, if any.
func (t *BTree) Min() (string, any, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	if len(n.keys) == 0 {
		return "", nil, false
	}
	return n.keys[0], n.values[0], true
}

// Depth returns the tree height (diagnostics / cost model input).
func (t *BTree) Depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		d++
		n = n.children[0]
	}
	return d
}
