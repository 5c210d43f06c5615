package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"split/internal/ga"
	"split/internal/model"
	"split/internal/onnxlite"
	"split/internal/policy"
	"split/internal/profiler"
)

// This file implements the Deployment Manager RPCs (§4.2): at runtime,
// operators can deploy new models (with or without split plans produced
// offline by splitga), replace a model's plan, or undeploy a model. Requests
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

// Deploy installs or replaces a model at runtime.
func (r *Responder) Deploy(args DeployArgs, reply *DeployReply) error {
	if args.Name == "" {
		return errors.New("serve: deploy with empty model name")
	}
	if args.ExtMs <= 0 {
		return fmt.Errorf("serve: deploy %s with non-positive ExtMs %v", args.Name, args.ExtMs)
	}
	class := model.RequestClass(args.Class)
	if class != model.Short && class != model.Long {
		return fmt.Errorf("serve: deploy %s with unknown class %q", args.Name, args.Class)
	}
	for _, b := range args.BlockTimesMs {
		if b <= 0 {
			return fmt.Errorf("serve: deploy %s with non-positive block time %v", args.Name, b)
		}
	}
	info := &policy.ModelInfo{
		Name:  args.Name,
		Class: class,
		ExtMs: args.ExtMs,
	}
	if len(args.BlockTimesMs) > 1 {
		times := append([]float64(nil), args.BlockTimesMs...)
		var total float64
		for _, t := range times {
			total += t
		}
		info.Plan = &model.SplitPlan{
			Model:         args.Name,
			Cuts:          make([]int, len(times)-1), // positions unknown at this layer
			BlockTimesMs:  times,
			OverheadRatio: total/args.ExtMs - 1,
		}
		for i := range info.Plan.Cuts {
			info.Plan.Cuts[i] = i + 1 // placeholder monotone positions
		}
	}

	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	if r.srv.closed {
		return ErrStopped
	}
	_, replaced := r.srv.cfg.Catalog[args.Name]
	r.srv.cfg.Catalog[args.Name] = info
	blocks := 1
	if info.Plan != nil {
		blocks = len(info.Plan.BlockTimesMs)
	}
	*reply = DeployReply{
		Name:     args.Name,
		Blocks:   blocks,
		Replaced: replaced,
	}
	return nil
}

// UndeployArgs names the model to remove.
type UndeployArgs struct {
	Name string
}

// Undeploy removes a model; queued requests for it still complete.
func (r *Responder) Undeploy(args UndeployArgs, reply *struct{}) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	if _, ok := r.srv.cfg.Catalog[args.Name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, args.Name)
	}
	delete(r.srv.cfg.Catalog, args.Name)
	return nil
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

// ListModels reports every deployed model, sorted by name.
func (r *Responder) ListModels(_ struct{}, reply *ListModelsReply) error {
	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	for name, info := range r.srv.cfg.Catalog {
		blocks := 1
		if info.Plan != nil && len(info.Plan.BlockTimesMs) > 0 {
			blocks = len(info.Plan.BlockTimesMs)
		}
		reply.Models = append(reply.Models, ModelDesc{
			Name:   name,
			Class:  string(info.Class),
			ExtMs:  info.ExtMs,
			Blocks: blocks,
		})
	}
	sort.Slice(reply.Models, func(i, j int) bool { return reply.Models[i].Name < reply.Models[j].Name })
	return nil
}

// DeployGraphArgs uploads a full model graph for server-side splitting:
// the §4.1/§4.2 path where SPLIT accepts models from deep-learning
// frameworks, converts them (request unwrapper), splits them offline with
// the genetic algorithm, and deploys the blocks.
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

// DeployGraph unwraps an uploaded graph, runs the evenly-sized splitting on
// it, and installs the result in the catalog.
func (r *Responder) DeployGraph(args DeployGraphArgs, reply *DeployGraphReply) error {
	g, err := onnxlite.DecodeGraph(bytes.NewReader(args.GraphJSON))
	if err != nil {
		return fmt.Errorf("serve: unwrap graph: %w", err)
	}
	info := &policy.ModelInfo{
		Name:  g.Name,
		Class: g.Class,
		ExtMs: g.TotalTimeMs(),
	}
	if args.Blocks > 1 {
		prof := profiler.New(g, model.DefaultCostModel())
		cfg := ga.DefaultConfig(args.Blocks)
		if args.GASeed != 0 {
			cfg.Seed = args.GASeed
		}
		res, err := ga.Run(prof, cfg)
		if err != nil {
			return fmt.Errorf("serve: split %s: %w", g.Name, err)
		}
		info.Plan = prof.Plan(res.Best)
	}

	r.srv.mu.Lock()
	defer r.srv.mu.Unlock()
	if r.srv.closed {
		return ErrStopped
	}
	_, replaced := r.srv.cfg.Catalog[g.Name]
	r.srv.cfg.Catalog[g.Name] = info
	*reply = DeployGraphReply{
		Name:     g.Name,
		Blocks:   1,
		Replaced: replaced,
	}
	if info.Plan != nil {
		reply.Blocks = info.Plan.NumBlocks()
		reply.StdDevMs = info.Plan.StdDevMs
		reply.OverheadRatio = info.Plan.OverheadRatio
	}
	return nil
}

// Client-side wrappers.

// DeployGraph uploads a graph for server-side splitting and deployment.
func (c *Client) DeployGraph(args DeployGraphArgs) (DeployGraphReply, error) {
	var reply DeployGraphReply
	err := c.call("SPLIT.DeployGraph", args, &reply)
	return reply, err
}

// Deploy installs or replaces a model on the server.
func (c *Client) Deploy(args DeployArgs) (DeployReply, error) {
	var reply DeployReply
	err := c.call("SPLIT.Deploy", args, &reply)
	return reply, err
}

// Undeploy removes a model from the server.
func (c *Client) Undeploy(name string) error {
	var reply struct{}
	return c.call("SPLIT.Undeploy", UndeployArgs{Name: name}, &reply)
}

// ListModels enumerates the server's deployment.
func (c *Client) ListModels() ([]ModelDesc, error) {
	var reply ListModelsReply
	err := c.call("SPLIT.ListModels", struct{}{}, &reply)
	return reply.Models, err
}
