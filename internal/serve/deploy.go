package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"split/internal/engine"
	"split/internal/ga"
	"split/internal/model"
	"split/internal/onnxlite"
	"split/internal/policy"
	"split/internal/profiler"
)

// This file implements the Deployment Manager calls (§4.2): at runtime,
// operators can deploy new models (with or without split plans produced
// offline by splitexp plan), replace a model's plan, or undeploy a model. Requests
// already queued keep their original block plans; only new arrivals see the
// updated deployment.

// DeployArgs describes one model deployment.
type DeployArgs struct {
	// Name is the model identifier clients will request.
	Name string
	// Class is "Short" or "Long".
	Class string
	// ExtMs is the isolated execution time the QoS target is based on.
	ExtMs float64
	// BlockTimesMs is the split plan's block times; empty or single-element
	// deploys the model unsplit.
	BlockTimesMs []float64
}

// DeployReply reports the resulting deployment.
type DeployReply struct {
	Name     string
	Blocks   int
	Replaced bool
}

// deploy answers Deploy: it installs or replaces a model at runtime.
func (s *Server) deploy(args *DeployArgs) (DeployReply, error) {
	if args.Name == "" {
		return DeployReply{}, errors.New("serve: deploy with empty model name")
	}
	if args.ExtMs <= 0 {
		return DeployReply{}, fmt.Errorf("serve: deploy %s with non-positive ExtMs %v", args.Name, args.ExtMs)
	}
	class, err := model.ParseClass(args.Class)
	if err != nil || class == 0 {
		return DeployReply{}, fmt.Errorf("serve: deploy %s with unknown class %q", args.Name, args.Class)
	}
	if err := engine.CheckPlan(args.Name, len(args.BlockTimesMs)); err != nil {
		return DeployReply{}, fmt.Errorf("serve: deploy: %w", err)
	}
	for _, b := range args.BlockTimesMs {
		if b <= 0 {
			return DeployReply{}, fmt.Errorf("serve: deploy %s with non-positive block time %v", args.Name, b)
		}
	}
	info := &policy.ModelInfo{
		Name:  args.Name,
		Class: class,
		ExtMs: args.ExtMs,
	}
	if len(args.BlockTimesMs) > 1 {
		info.Plan = &model.SplitPlan{
			Model:        args.Name,
			Cuts:         make([]int, len(args.BlockTimesMs)-1), // positions unknown at this layer
			BlockTimesMs: append([]float64(nil), args.BlockTimesMs...),
		}
		info.Plan.OverheadRatio = info.Plan.TotalTimeMs()/args.ExtMs - 1
		for i := range info.Plan.Cuts {
			info.Plan.Cuts[i] = i + 1 // placeholder monotone positions
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return DeployReply{}, ErrStopped
	}
	_, replaced := s.cfg.Catalog[args.Name]
	s.cfg.Catalog[args.Name] = info
	return DeployReply{Name: args.Name, Blocks: max(1, len(args.BlockTimesMs)), Replaced: replaced}, nil
}

// UndeployArgs names the model to remove.
type UndeployArgs struct {
	Name string
}

// undeploy answers Undeploy: it removes a model; queued requests for it
// still complete.
func (s *Server) undeploy(args *UndeployArgs) (empty, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.cfg.Catalog[args.Name]; !ok {
		return empty{}, fmt.Errorf("%w: %q", ErrUnknownModel, args.Name)
	}
	delete(s.cfg.Catalog, args.Name)
	return empty{}, nil
}

// ModelDesc describes one deployed model.
type ModelDesc struct {
	Name   string
	Class  string
	ExtMs  float64
	Blocks int
}

// ListModelsReply enumerates the deployment.
type ListModelsReply struct {
	Models []ModelDesc
}

// listModels answers ListModels: every deployed model, sorted by name.
func (s *Server) listModels(*empty) (ListModelsReply, error) {
	var reply ListModelsReply
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, info := range s.cfg.Catalog {
		reply.Models = append(reply.Models, ModelDesc{
			Name:   name,
			Class:  info.Class.String(),
			ExtMs:  info.ExtMs,
			Blocks: len(s.cfg.Catalog.BlocksFor(name)),
		})
	}
	sort.Slice(reply.Models, func(i, j int) bool { return reply.Models[i].Name < reply.Models[j].Name })
	return reply, nil
}

// DeployGraphArgs uploads a full model graph for server-side splitting
// (§4.1/§4.2): SPLIT converts it (request unwrapper), splits it with the
// genetic algorithm, and deploys the blocks.
type DeployGraphArgs struct {
	// GraphJSON is the onnxlite-encoded graph.
	GraphJSON []byte
	// Blocks is the desired block count; <= 1 deploys unsplit.
	Blocks int
	// GASeed seeds the server-side splitting run (0 = 1).
	GASeed int64
}

// DeployGraphReply reports the produced plan.
type DeployGraphReply struct {
	Name          string
	Blocks        int
	StdDevMs      float64
	OverheadRatio float64
	Replaced      bool
}

// deployGraph answers DeployGraph: it unwraps an uploaded graph, runs the
// evenly-sized splitting on it, and installs the result in the catalog.
func (s *Server) deployGraph(args *DeployGraphArgs) (DeployGraphReply, error) {
	g, err := onnxlite.DecodeGraph(bytes.NewReader(args.GraphJSON))
	if err != nil {
		return DeployGraphReply{}, fmt.Errorf("serve: unwrap graph: %w", err)
	}
	info := &policy.ModelInfo{
		Name:  g.Name,
		Class: g.Class,
		ExtMs: g.TotalTimeMs(),
	}
	if err := engine.CheckPlan(g.Name, args.Blocks); err != nil {
		return DeployGraphReply{}, fmt.Errorf("serve: deploy graph: %w", err)
	}
	if args.Blocks > 1 {
		prof := profiler.New(g, model.DefaultCostModel())
		cfg := ga.DefaultConfig(args.Blocks)
		if args.GASeed != 0 {
			cfg.Seed = args.GASeed
		}
		res, err := ga.Run(prof, cfg)
		if err != nil {
			return DeployGraphReply{}, fmt.Errorf("serve: split %s: %w", g.Name, err)
		}
		info.Plan = prof.Plan(res.Best)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return DeployGraphReply{}, ErrStopped
	}
	_, replaced := s.cfg.Catalog[g.Name]
	s.cfg.Catalog[g.Name] = info
	reply := DeployGraphReply{Name: g.Name, Blocks: 1, Replaced: replaced}
	if info.Plan != nil {
		reply.Blocks = info.Plan.NumBlocks()
		reply.StdDevMs = info.Plan.StdDevMs
		reply.OverheadRatio = info.Plan.OverheadRatio
	}
	return reply, nil
}

// DeployGraph uploads a graph for server-side splitting and deployment.
func (c *Client) DeployGraph(args DeployGraphArgs) (DeployGraphReply, error) {
	return call[DeployGraphReply](c, "SPLIT.DeployGraph", &args)
}

// Deploy installs or replaces a model on the server.
func (c *Client) Deploy(args DeployArgs) (DeployReply, error) {
	return call[DeployReply](c, "SPLIT.Deploy", &args)
}

// Undeploy removes a model from the server.
func (c *Client) Undeploy(name string) error {
	_, err := call[empty](c, "SPLIT.Undeploy", &UndeployArgs{Name: name})
	return err
}

// ListModels enumerates the server's deployment.
func (c *Client) ListModels() ([]ModelDesc, error) {
	reply, err := call[ListModelsReply](c, "SPLIT.ListModels", &empty{})
	return reply.Models, err
}
