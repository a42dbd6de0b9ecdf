package graph

import (
	"math/rand"
	"slices"

	"mlimp/internal/fixed"
	"mlimp/internal/tensor"
)

// Subgraph is the k-hop neighbourhood of a query node, the unit of work
// of subgraph learning (mini-batching). Nodes holds original node ids;
// index 0 is the query node. Adj is the induced normalised adjacency over
// the local node indices.
type Subgraph struct {
	Query int
	Nodes []int32
	Adj   *tensor.CSR
}

// NumNodes returns the number of nodes in the subgraph.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// NNZ returns the number of nonzeros of the induced adjacency, the
// workload-size driver of the SpMM aggregation kernel.
func (s *Subgraph) NNZ() int { return s.Adj.NNZ() }

// Sampler extracts k-hop neighbourhood subgraphs with per-hop fanout
// limits, mirroring PyG's neighbor sampler (Section IV).
//
// A Sampler keeps scratch state between calls — a dense per-node marker
// and the buffers an induced adjacency is built in — so it is not safe
// for concurrent use.
type Sampler struct {
	G       *Graph
	Hops    int
	Fanout  int // max neighbours expanded per node per hop; <=0 = all
	rng     *rand.Rand
	normAdj *tensor.CSR // cached normalised adjacency of G

	// mark holds, per node of G, its local index + 1 in the subgraph
	// being built (or any nonzero value while hops are expanded); 0
	// means absent. Every call clears the entries it set.
	mark    []int32
	visited []int32     // nodes in discovery order
	cols    []int32     // induced CSR columns, built before the exact-length copy
	vals    []fixed.Num // induced CSR values, likewise
}

// NewSampler builds a sampler over g with the given hop count and fanout.
func NewSampler(rng *rand.Rand, g *Graph, hops, fanout int) *Sampler {
	if hops < 1 {
		panic("graph: sampler needs >= 1 hop")
	}
	return &Sampler{G: g, Hops: hops, Fanout: fanout, rng: rng,
		normAdj: g.NormalizedAdjacency(), mark: make([]int32, g.N)}
}

// Sample extracts the k-hop subgraph around query. Nodes lists the query
// first, then the rest of the neighbourhood in ascending id order.
func (s *Sampler) Sample(query int) *Subgraph {
	s.mark[query] = 1
	s.visited = append(s.visited[:0], int32(query))
	// Each hop's frontier is the run of visited nodes the previous hop
	// discovered.
	for hop, lo := 0, 0; hop < s.Hops; hop++ {
		hi := len(s.visited)
		for i := lo; i < hi; i++ {
			ns := s.G.Neighbors(int(s.visited[i]))
			if s.Fanout > 0 && len(ns) > s.Fanout {
				for _, p := range s.rng.Perm(len(ns))[:s.Fanout] {
					s.visit(ns[p])
				}
				continue
			}
			for _, v := range ns {
				s.visit(v)
			}
		}
		if len(s.visited) == hi {
			break
		}
		lo = hi
	}
	nodes := slices.Clone(s.visited)
	slices.Sort(nodes[1:])
	return &Subgraph{Query: query, Nodes: nodes, Adj: s.induced(nodes)}
}

// visit adds v to the subgraph unless it is already in it.
func (s *Sampler) visit(v int32) {
	if s.mark[v] == 0 {
		s.mark[v] = 1
		s.visited = append(s.visited, v)
	}
}

// induced extracts the normalised adjacency restricted to nodes, remapped
// to local indices, and clears the marks of nodes. nodes[1:] must be
// sorted ascending, so the local columns of every row come out in the
// row's global column order, save local 0, which leads the row.
func (s *Sampler) induced(nodes []int32) *tensor.CSR {
	for i, v := range nodes {
		s.mark[v] = int32(i) + 1
	}
	m := tensor.NewCSR(len(nodes), len(nodes))
	cols, vals := s.cols[:0], s.vals[:0]
	for i, u := range nodes {
		rowCols, rowVals := s.normAdj.RowEntries(int(u))
		first := len(cols)
		for k, c := range rowCols {
			if l := s.mark[c]; l != 0 {
				cols = append(cols, l-1)
				vals = append(vals, rowVals[k])
				if l == 1 && len(cols)-1 > first { // local 0 to the front
					copy(cols[first+1:], cols[first:len(cols)-1])
					copy(vals[first+1:], vals[first:len(vals)-1])
					cols[first], vals[first] = 0, rowVals[k]
				}
			}
		}
		m.RowPtr[i+1] = int32(len(cols))
	}
	for _, v := range nodes {
		s.mark[v] = 0
	}
	m.ColIdx, m.Val = slices.Clone(cols), slices.Clone(vals)
	s.cols, s.vals = cols, vals
	return m
}

// SampleBatch samples one subgraph per query.
func (s *Sampler) SampleBatch(queries []int) []*Subgraph {
	out := make([]*Subgraph, len(queries))
	for i, q := range queries {
		out[i] = s.Sample(q)
	}
	return out
}

// Concat merges a batch of subgraphs into one concatenated subgraph over
// the union of their nodes (Section IV: used for highly connected graphs
// such as ogbl-ppa and ogbl-ddi where k-hop neighbourhoods overlap
// heavily). Query is taken from the first subgraph; Nodes is the union
// in ascending id order.
func (s *Sampler) Concat(batch []*Subgraph) *Subgraph {
	if len(batch) == 0 {
		panic("graph: Concat of empty batch")
	}
	s.visited = s.visited[:0]
	for _, sg := range batch {
		for _, v := range sg.Nodes {
			s.visit(v)
		}
	}
	nodes := slices.Clone(s.visited)
	slices.Sort(nodes)
	return &Subgraph{Query: batch[0].Query, Nodes: nodes, Adj: s.induced(nodes)}
}
