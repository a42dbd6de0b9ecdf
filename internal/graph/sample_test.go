package graph

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"mlimp/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// servingDataset is the small serving-scale stand-in the serving
// experiments and the perfbench serve-gnn workload sample from.
var servingDataset = Dataset{Name: "serving", Vertices: 1200, ScaleDiv: 1, Attachment: 8}

func mustDataset(t testing.TB, name string) Dataset {
	t.Helper()
	d, ok := DatasetByName(name)
	if !ok {
		t.Fatalf("dataset %q missing", name)
	}
	return d
}

// hashSubgraph returns an FNV-1a hash over the node list and every CSR
// array of sg, so any change to a node, a row bound, a column or a value
// shows.
func hashSubgraph(sg *Subgraph) uint64 {
	var buf []byte
	for _, v := range sg.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, arr := range [][]int32{sg.Adj.RowPtr, sg.Adj.ColIdx} {
		for _, v := range arr {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	for _, v := range sg.Adj.Val {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(v))
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestSamplerGolden pins the sampler's output bit for bit: the node
// list, row pointers, columns and values of fixed queries on the
// serving graph and the ogbl-citation2 stand-in, of a concatenated
// ogbl-ddi batch, of a one-hop sampler and of a fanout-limited sampler
// whose neighbour draws depend on the order queries are sampled in.
// Regenerate with `go test ./internal/graph -run TestSamplerGolden -update`.
func TestSamplerGolden(t *testing.T) {
	var sb strings.Builder
	emit := func(name string, sg *Subgraph) {
		fmt.Fprintf(&sb, "%-16s q=%-5d n=%-5d nnz=%-7d %016x\n",
			name, sg.Query, sg.NumNodes(), sg.NNZ(), hashSubgraph(sg))
	}
	queries := []int{0, 1, 7, 42, 311, 599, 1023, 1199}

	serving := servingDataset.Generate(rand.New(rand.NewSource(1)))
	s := NewSampler(rand.New(rand.NewSource(2)), serving, 2, 0)
	for _, q := range queries {
		emit("serving", s.Sample(q))
	}
	s1 := NewSampler(rand.New(rand.NewSource(3)), serving, 1, 0)
	for _, q := range queries {
		emit("serving/hops1", s1.Sample(q))
	}
	sf := NewSampler(rand.New(rand.NewSource(4)), serving, 2, 5)
	for _, q := range queries {
		emit("serving/fanout5", sf.Sample(q))
	}

	cit := mustDataset(t, "ogbl-citation2").Generate(rand.New(rand.NewSource(5)))
	sc := NewSampler(rand.New(rand.NewSource(6)), cit, 2, 0)
	for _, q := range []int{0, 3, 1000, 12345, 29278} {
		emit("ogbl-citation2", sc.Sample(q))
	}

	ddi := mustDataset(t, "ogbl-ddi").Generate(rand.New(rand.NewSource(7)))
	sd := NewSampler(rand.New(rand.NewSource(8)), ddi, 2, 0)
	emit("ogbl-ddi/concat", sd.Concat(sd.SampleBatch([]int{5, 77, 1024, 2048, 4266})))

	got := sb.String()
	path := filepath.Join("testdata", "sampler.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("sampler output drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// refSampler is the original map-based k-hop sampler, kept as a test
// oracle: hop membership and the global-to-local remap in maps, every
// induced row sorted by local column.
type refSampler struct {
	g       *Graph
	hops    int
	fanout  int
	rng     *rand.Rand
	normAdj *tensor.CSR
}

func (s *refSampler) sample(query int) *Subgraph {
	inSet := map[int32]struct{}{int32(query): {}}
	frontier := []int32{int32(query)}
	for hop := 0; hop < s.hops; hop++ {
		var next []int32
		for _, u := range frontier {
			ns := s.g.Neighbors(int(u))
			picked := ns
			if s.fanout > 0 && len(ns) > s.fanout {
				picked = make([]int32, s.fanout)
				perm := s.rng.Perm(len(ns))[:s.fanout]
				for i, p := range perm {
					picked[i] = ns[p]
				}
			}
			for _, v := range picked {
				if _, ok := inSet[v]; !ok {
					inSet[v] = struct{}{}
					next = append(next, v)
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	nodes := make([]int32, 0, len(inSet))
	for v := range inSet {
		if int(v) != query {
			nodes = append(nodes, v)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	nodes = append([]int32{int32(query)}, nodes...)
	return &Subgraph{Query: query, Nodes: nodes, Adj: s.induced(nodes)}
}

func (s *refSampler) induced(nodes []int32) *tensor.CSR {
	local := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	m := tensor.NewCSR(len(nodes), len(nodes))
	for i, u := range nodes {
		cols, vals := s.normAdj.RowEntries(int(u))
		type ent struct {
			c int32
			v int
		}
		row := make([]ent, 0, len(cols))
		for k, c := range cols {
			if lc, ok := local[c]; ok {
				row = append(row, ent{c: lc, v: k})
			}
		}
		sort.Slice(row, func(a, b int) bool { return row[a].c < row[b].c })
		for _, e := range row {
			m.ColIdx = append(m.ColIdx, e.c)
			m.Val = append(m.Val, vals[e.v])
		}
		m.RowPtr[i+1] = int32(len(m.ColIdx))
	}
	return m
}

func (s *refSampler) concat(batch []*Subgraph) *Subgraph {
	union := map[int32]struct{}{}
	for _, sg := range batch {
		for _, v := range sg.Nodes {
			union[v] = struct{}{}
		}
	}
	nodes := make([]int32, 0, len(union))
	for v := range union {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return &Subgraph{Query: batch[0].Query, Nodes: nodes, Adj: s.induced(nodes)}
}

func sameSubgraph(a, b *Subgraph) bool {
	return a.Query == b.Query && slices.Equal(a.Nodes, b.Nodes) &&
		a.Adj.Rows == b.Adj.Rows && a.Adj.Cols == b.Adj.Cols &&
		slices.Equal(a.Adj.RowPtr, b.Adj.RowPtr) &&
		slices.Equal(a.Adj.ColIdx, b.Adj.ColIdx) &&
		slices.Equal(a.Adj.Val, b.Adj.Val)
}

// TestSamplerMatchesReference compares the sampler with the map-based
// oracle bit for bit on every catalogue dataset and the serving graph:
// plain k-hop samples at one to three hops, fanout-limited samples
// (both samplers draw from identically seeded generators, so equal
// output also means equal draw order), and concatenated batches.
func TestSamplerMatchesReference(t *testing.T) {
	datasets := append([]Dataset{servingDataset}, Datasets...)
	for di, d := range datasets {
		g := d.Generate(rand.New(rand.NewSource(int64(100 + di))))
		for _, cfg := range []struct{ hops, fanout, queries int }{
			{2, 0, 12}, {1, 0, 12}, {3, 8, 12}, {2, 4, 12},
		} {
			seed := int64(1000*di + 10*cfg.hops + cfg.fanout)
			s := NewSampler(rand.New(rand.NewSource(seed)), g, cfg.hops, cfg.fanout)
			ref := &refSampler{g: g, hops: cfg.hops, fanout: cfg.fanout,
				rng: rand.New(rand.NewSource(seed)), normAdj: g.NormalizedAdjacency()}
			qrng := rand.New(rand.NewSource(seed + 1))
			var batch, refBatch []*Subgraph
			for i := 0; i < cfg.queries; i++ {
				q := qrng.Intn(g.N)
				got, want := s.Sample(q), ref.sample(q)
				if !sameSubgraph(got, want) {
					t.Fatalf("%s hops=%d fanout=%d query %d: sample differs from the reference",
						d.Name, cfg.hops, cfg.fanout, q)
				}
				batch, refBatch = append(batch, got), append(refBatch, want)
			}
			for _, n := range []int{1, 3, len(batch)} {
				if got, want := s.Concat(batch[:n]), ref.concat(refBatch[:n]); !sameSubgraph(got, want) {
					t.Fatalf("%s hops=%d fanout=%d: concat of %d differs from the reference",
						d.Name, cfg.hops, cfg.fanout, n)
				}
			}
		}
	}
}

// TestSampleAllocatesOnlyItsResult bounds a warmed sampler's
// allocations: the Subgraph, its node list, the CSR header and the
// CSR's three arrays, nothing else. Hop membership, the local remap and
// the induced rows all live in sampler scratch.
func TestSampleAllocatesOnlyItsResult(t *testing.T) {
	const result = 6 // Subgraph, Nodes, CSR, RowPtr, ColIdx, Val
	g := servingDataset.Generate(rand.New(rand.NewSource(1)))
	s := NewSampler(rand.New(rand.NewSource(2)), g, 2, 0)
	queries := []int{0, 42, 1199}
	for _, q := range queries {
		s.Sample(q) // grow the scratch to the largest query
	}
	for _, q := range queries {
		if n := testing.AllocsPerRun(20, func() { s.Sample(q) }); n > result {
			t.Errorf("Sample(%d) allocates %.0f times, want <= %d", q, n, result)
		}
	}
	batch := s.SampleBatch(queries)
	s.Concat(batch)
	if n := testing.AllocsPerRun(20, func() { s.Concat(batch) }); n > result {
		t.Errorf("Concat allocates %.0f times, want <= %d", n, result)
	}
}
