// Package onnxlite persists model graphs and split plans.
//
// The real SPLIT stores split blocks as .onnx files produced offline and
// loads them in the online deployment manager (§4.1 steps 3-4). This
// package plays that role with a JSON container: graphs, blocks and plans
// round-trip through a stable, versioned format so the offline splitting
// tool (splitexp plan) and the online server (cmd/splitd) can exchange
// artifacts through the filesystem.
package onnxlite

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"split/internal/model"
)

// FormatVersion guards against loading artifacts from incompatible builds.
const FormatVersion = 1

// graphFile is the on-disk representation of a model graph.
type graphFile struct {
	Version int      `json:"version"`
	Name    string   `json:"name"`
	Domain  string   `json:"domain"`
	Class   string   `json:"class"`
	Ops     []opRec  `json:"ops"`
	Edges   [][2]int `json:"edges,omitempty"`
}

type opRec struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	TimeMs   float64 `json:"time_ms"`
	OutBytes int64   `json:"out_bytes"`
	FLOPs    int64   `json:"flops,omitempty"`
}

// EncodeGraph writes g as JSON to w.
func EncodeGraph(w io.Writer, g *model.Graph) error {
	if err := g.Validate(); err != nil {
		return fmt.Errorf("onnxlite: refusing to encode invalid graph: %w", err)
	}
	f := graphFile{
		Version: FormatVersion,
		Name:    g.Name,
		Domain:  g.Domain,
		Class:   g.Class.String(),
		Ops:     make([]opRec, len(g.Ops)),
	}
	for i, op := range g.Ops {
		f.Ops[i] = opRec{
			Name:     op.Name,
			Kind:     string(op.Kind),
			TimeMs:   op.TimeMs,
			OutBytes: op.OutBytes,
			FLOPs:    op.FLOPs,
		}
	}
	for _, e := range g.Edges {
		f.Edges = append(f.Edges, [2]int{e.From, e.To})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// DecodeGraph reads a JSON graph from r and validates it.
func DecodeGraph(r io.Reader) (*model.Graph, error) {
	var f graphFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("onnxlite: decode graph: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("onnxlite: unsupported graph format version %d", f.Version)
	}
	class, err := model.ParseClass(f.Class)
	if err != nil {
		return nil, fmt.Errorf("onnxlite: decode graph %s: %w", f.Name, err)
	}
	g := &model.Graph{
		Name:   f.Name,
		Domain: f.Domain,
		Class:  class,
		Ops:    make([]model.Op, len(f.Ops)),
	}
	for i, op := range f.Ops {
		g.Ops[i] = model.Op{
			Name:     op.Name,
			Kind:     model.Kind(op.Kind),
			TimeMs:   op.TimeMs,
			OutBytes: op.OutBytes,
			FLOPs:    op.FLOPs,
		}
	}
	for _, e := range f.Edges {
		g.Edges = append(g.Edges, model.Edge{From: e[0], To: e[1]})
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("onnxlite: decoded graph invalid: %w", err)
	}
	return g, nil
}

// SaveGraph writes the graph to path, creating parent directories.
func SaveGraph(path string, g *model.Graph) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := EncodeGraph(f, g); err != nil {
		return err
	}
	return f.Close()
}

// LoadGraph reads a graph from path.
func LoadGraph(path string) (*model.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeGraph(f)
}

// planFile is the on-disk representation of a split plan.
type planFile struct {
	Version       int       `json:"version"`
	Model         string    `json:"model"`
	Cuts          []int     `json:"cuts"`
	BlockTimesMs  []float64 `json:"block_times_ms"`
	OverheadRatio float64   `json:"overhead_ratio"`
	StdDevMs      float64   `json:"std_dev_ms"`
}

// EncodePlan writes a split plan as JSON to w.
func EncodePlan(w io.Writer, p *model.SplitPlan) error {
	f := planFile{
		Version:       FormatVersion,
		Model:         p.Model,
		Cuts:          p.Cuts,
		BlockTimesMs:  p.BlockTimesMs,
		OverheadRatio: p.OverheadRatio,
		StdDevMs:      p.StdDevMs,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// DecodePlan reads a split plan from r.
func DecodePlan(r io.Reader) (*model.SplitPlan, error) {
	var f planFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("onnxlite: decode plan: %w", err)
	}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("onnxlite: unsupported plan format version %d", f.Version)
	}
	if f.Model == "" {
		return nil, fmt.Errorf("onnxlite: plan has empty model name")
	}
	if len(f.BlockTimesMs) != len(f.Cuts)+1 {
		return nil, fmt.Errorf("onnxlite: plan for %s has %d block times for %d cuts",
			f.Model, len(f.BlockTimesMs), len(f.Cuts))
	}
	return &model.SplitPlan{
		Model:         f.Model,
		Cuts:          f.Cuts,
		BlockTimesMs:  f.BlockTimesMs,
		OverheadRatio: f.OverheadRatio,
		StdDevMs:      f.StdDevMs,
	}, nil
}

// SavePlan writes the plan to path, creating parent directories.
func SavePlan(path string, p *model.SplitPlan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := EncodePlan(f, p); err != nil {
		return err
	}
	return f.Close()
}

// LoadPlan reads a plan from path.
func LoadPlan(path string) (*model.SplitPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodePlan(f)
}

// SavePlanDir writes every plan into dir as <model>.plan.json.
func SavePlanDir(dir string, plans map[string]*model.SplitPlan) error {
	for name, p := range plans {
		if err := SavePlan(filepath.Join(dir, name+".plan.json"), p); err != nil {
			return err
		}
	}
	return nil
}

// LoadPlanDir reads every *.plan.json in dir keyed by model name.
func LoadPlanDir(dir string) (map[string]*model.SplitPlan, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.plan.json"))
	if err != nil {
		return nil, err
	}
	plans := make(map[string]*model.SplitPlan, len(matches))
	for _, path := range matches {
		p, err := LoadPlan(path)
		if err != nil {
			return nil, fmt.Errorf("onnxlite: %s: %w", path, err)
		}
		plans[p.Model] = p
	}
	return plans, nil
}

// ExtractBlocks materializes each block of a plan as its own sub-graph, the
// analogue of storing per-block .onnx files. Intra-block data dependencies
// are carried over with remapped indices; edges crossing a cut become the
// block's external inputs and are not represented in the sub-graph (their
// cost lives in the plan's boundary overheads).
func ExtractBlocks(g *model.Graph, p *model.SplitPlan) ([]*model.Graph, error) {
	if g.Name != p.Model {
		return nil, fmt.Errorf("onnxlite: plan is for %s, graph is %s", p.Model, g.Name)
	}
	if err := g.ValidateCuts(p.Cuts); err != nil {
		return nil, err
	}
	blocks := g.Blocks(p.Cuts)
	out := make([]*model.Graph, len(blocks))
	for i, b := range blocks {
		sub := &model.Graph{
			Name:   fmt.Sprintf("%s.block%d", g.Name, i),
			Domain: g.Domain,
			Class:  g.Class,
			Ops:    append([]model.Op(nil), g.Ops[b.Start:b.End]...),
		}
		for _, e := range g.Edges {
			if e.From >= b.Start && e.To < b.End {
				sub.Edges = append(sub.Edges, model.Edge{From: e.From - b.Start, To: e.To - b.Start})
			}
		}
		out[i] = sub
	}
	return out, nil
}

// WriteDOT renders the graph in Graphviz DOT format, optionally marking cut
// positions (each cut c draws a dashed boundary annotation between ops c-1
// and c). Node labels carry the operator kind and time; edge thickness is
// not encoded, keeping files small enough for the 2534-op GPT-2.
func WriteDOT(w io.Writer, g *model.Graph, cuts []int) error {
	cutSet := map[int]bool{}
	for _, c := range cuts {
		cutSet[c] = true
	}
	if _, err := fmt.Fprintf(w, "digraph %q {\n  rankdir=TB;\n  node [shape=box, fontsize=9];\n", g.Name); err != nil {
		return err
	}
	block := 0
	for i, op := range g.Ops {
		if cutSet[i] {
			block++
		}
		if _, err := fmt.Fprintf(w, "  n%d [label=\"%s\\n%.3fms\", group=\"block%d\"];\n",
			i, op.Name, op.TimeMs, block); err != nil {
			return err
		}
	}
	if len(g.Edges) == 0 {
		for i := 1; i < len(g.Ops); i++ {
			if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", i-1, i); err != nil {
				return err
			}
		}
	} else {
		for _, e := range g.Edges {
			style := ""
			if e.To-e.From > 1 {
				style = " [style=dashed]" // skip connection
			}
			if _, err := fmt.Fprintf(w, "  n%d -> n%d%s;\n", e.From, e.To, style); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

// SaveBlocks materializes a plan's blocks (see ExtractBlocks) and writes
// each as <model>.block<N>.json under dir — the analogue of §4.1 step 3
// "stores the blocks as .onnx files". It returns the written paths.
func SaveBlocks(dir string, g *model.Graph, p *model.SplitPlan) ([]string, error) {
	blocks, err := ExtractBlocks(g, p)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(blocks))
	for i, b := range blocks {
		path := filepath.Join(dir, fmt.Sprintf("%s.block%d.json", g.Name, i))
		if err := SaveGraph(path, b); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// LoadBlocks reads every <model>.block<N>.json for the named model from dir
// in block order.
func LoadBlocks(dir, modelName string) ([]*model.Graph, error) {
	var out []*model.Graph
	for i := 0; ; i++ {
		path := filepath.Join(dir, fmt.Sprintf("%s.block%d.json", modelName, i))
		if _, err := os.Stat(path); err != nil {
			break
		}
		g, err := LoadGraph(path)
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("onnxlite: no blocks for %s in %s", modelName, dir)
	}
	return out, nil
}
