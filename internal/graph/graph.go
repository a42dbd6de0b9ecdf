// Package graph provides the graph substrate for the GNN case study:
// CSR-based graphs, scale-free synthetic generators standing in for the
// Open Graph Benchmark datasets of Table I, the k-hop neighbourhood
// sampler used by subgraph learning, and normalised-adjacency
// construction for GCN aggregation.
package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mlimp/internal/fixed"
	"mlimp/internal/tensor"
)

// Graph is an undirected graph stored as a CSR adjacency structure.
// Neighbour lists are sorted and deduplicated; self-loops are allowed
// (GCN renormalisation adds them explicitly).
type Graph struct {
	N      int
	rowPtr []int32
	adj    []int32
}

// Builder accumulates edges and produces a Graph.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("graph: node count must be positive")
	}
	return &Builder{n: n}
}

// AddEdge records an undirected edge u-v. Out-of-range endpoints panic.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{int32(u), int32(v)})
}

// Build produces the immutable CSR graph. Parallel edges collapse to one.
func (b *Builder) Build() *Graph {
	// Symmetrise: store each undirected edge in both directions, packed
	// as (source << 32 | destination) so a plain integer sort orders the
	// arcs by source, then destination.
	arcs := make([]uint64, 0, 2*len(b.edges))
	for _, e := range b.edges {
		u, v := uint64(e[0]), uint64(e[1])
		arcs = append(arcs, u<<32|v)
		if u != v {
			arcs = append(arcs, v<<32|u)
		}
	}
	slices.Sort(arcs)
	arcs = slices.Compact(arcs) // dedupe
	g := &Graph{N: b.n, rowPtr: make([]int32, b.n+1), adj: make([]int32, len(arcs))}
	for i, a := range arcs {
		g.rowPtr[a>>32+1]++
		g.adj[i] = int32(uint32(a))
	}
	for u := 0; u < b.n; u++ {
		g.rowPtr[u+1] += g.rowPtr[u]
	}
	return g
}

// Neighbors returns the sorted neighbour list of node u, aliasing
// internal storage.
func (g *Graph) Neighbors(u int) []int32 {
	return g.adj[g.rowPtr[u]:g.rowPtr[u+1]]
}

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u int) int { return int(g.rowPtr[u+1] - g.rowPtr[u]) }

// NumEdges returns the number of undirected edges (self-loops count once).
func (g *Graph) NumEdges() int {
	selfLoops := 0
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				selfLoops++
			}
		}
	}
	return (len(g.adj)-selfLoops)/2 + selfLoops
}

// HasEdge reports whether the edge u-v exists. O(log degree(u)).
func (g *Graph) HasEdge(u, v int) bool {
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= int32(v) })
	return i < len(ns) && ns[i] == int32(v)
}

// String renders node and edge counts.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N, g.NumEdges())
}

// Adjacency returns the binary adjacency matrix in CSR form with
// fixed-point 1.0 entries.
func (g *Graph) Adjacency() *tensor.CSR {
	m := tensor.NewCSR(g.N, g.N)
	one := fixed.FromInt(1)
	for u := 0; u < g.N; u++ {
		for _, v := range g.Neighbors(u) {
			m.ColIdx = append(m.ColIdx, v)
			m.Val = append(m.Val, one)
		}
		m.RowPtr[u+1] = int32(len(m.ColIdx))
	}
	return m
}

// NormalizedAdjacency returns the GCN-normalised adjacency
// D̂^{-1/2} (A+I) D̂^{-1/2} (Kipf & Welling renormalisation trick) in CSR
// form with fixed-point values.
func (g *Graph) NormalizedAdjacency() *tensor.CSR {
	invSqrt := make([]float64, g.N)
	for u := 0; u < g.N; u++ {
		d := g.Degree(u) + 1 // +1 for the added self-loop
		if g.HasEdge(u, u) {
			d-- // the self-loop was already counted in Degree
		}
		invSqrt[u] = 1 / math.Sqrt(float64(d))
	}
	m := tensor.NewCSR(g.N, g.N)
	for u := 0; u < g.N; u++ {
		hasSelf := false
		emit := func(v int32) {
			m.ColIdx = append(m.ColIdx, v)
			m.Val = append(m.Val, fixed.FromFloat(invSqrt[u]*invSqrt[v]))
		}
		for _, v := range g.Neighbors(u) {
			if int(v) == u {
				hasSelf = true
			}
			// Keep columns sorted while inserting the self-loop.
			if !hasSelf && int(v) > u {
				emit(int32(u))
				hasSelf = true
			}
			emit(v)
		}
		if !hasSelf {
			emit(int32(u))
		}
		m.RowPtr[u+1] = int32(len(m.ColIdx))
	}
	return m
}
