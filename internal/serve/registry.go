package serve

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"specml/internal/nn"
	"specml/internal/obs"
)

// ErrModelReloaded reports that a hot reload swapped in a model whose input
// width no longer matches a request that was preprocessed for the previous
// weights. The affected batch fails cleanly; clients retry against the new
// width advertised by /v1/models.
var ErrModelReloaded = errors.New("serve: model input width changed by reload")

// errAmbiguousModel marks a request that omitted the model name while the
// registry holds several models: a malformed request, not a missing
// resource.
var errAmbiguousModel = errors.New("serve: request must name a model")

// errNoModelDir reports a publish against a registry that has no model
// directory to persist into: published weights would silently vanish on the
// next reload, so the operation is refused instead.
var errNoModelDir = errors.New("serve: no model directory configured for publish")

// errBadModelName reports a publish name that is not a plain file base name.
var errBadModelName = errors.New("serve: model name must be a plain name without path separators")

// ModelInfo is the public description of one registered model.
type ModelInfo struct {
	Name      string    `json:"name"`
	InputLen  int       `json:"inputLen"`
	OutputLen int       `json:"outputLen"`
	Params    int       `json:"params"`
	Source    string    `json:"source,omitempty"` // file path, empty for programmatic models
	LoadedAt  time.Time `json:"loadedAt"`
}

// modelEntry couples one named model with its dedicated micro-batcher.
// The model pointer is swapped under the registry lock on hot reload; the
// batcher survives reloads, so queued requests transparently run against
// the newest weights at flush time.
type modelEntry struct {
	name     string
	source   string
	mu       sync.RWMutex
	model    *nn.Model
	loadedAt time.Time
	batcher  *Batcher

	// reqs/errs are this model's obs counters, resolved once at entry
	// creation so the predict hot path records without registry lookups.
	reqs, errs *obs.Counter
}

// current returns the entry's model at this instant.
func (e *modelEntry) current() *nn.Model {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.model
}

// swap installs a freshly loaded model, atomically from the batcher's
// point of view.
func (e *modelEntry) swap(m *nn.Model) {
	e.mu.Lock()
	e.model = m
	e.loadedAt = time.Now()
	e.mu.Unlock()
}

// Registry holds the named models a server can route requests to. Models
// come from a directory of nn.Save JSON files (one model per *.json file,
// named after its base name) or are registered programmatically; ReloadDir
// re-reads the directory without restarting, picking up new files and new
// weights for existing names.
type Registry struct {
	workers  int
	maxBatch int
	mx       *serveMetrics // nil disables obs recording
	logger   *slog.Logger

	mu      sync.RWMutex
	dir     string
	entries map[string]*modelEntry
}

// newRegistry wires batching parameters shared by every model's batcher.
func newRegistry(maxBatch, workers int, mx *serveMetrics, logger *slog.Logger) *Registry {
	if logger == nil {
		logger = obs.NopLogger()
	}
	return &Registry{
		workers:  workers,
		maxBatch: maxBatch,
		mx:       mx,
		logger:   logger,
		entries:  make(map[string]*modelEntry),
	}
}

// newEntry creates an entry plus its batcher; the batcher snapshots the
// entry's current model per flush so reloads take effect immediately.
func (r *Registry) newEntry(name, source string, m *nn.Model) *modelEntry {
	e := &modelEntry{name: name, source: source, model: m, loadedAt: time.Now()}
	e.batcher = newBatcher(r.maxBatch, func(xs [][]float64) ([][]float64, error) {
		// One snapshot per flush: every row is validated against the exact
		// model that will run the batch. Requests are preprocessed to the
		// width current at enqueue time, so a hot reload that changes the
		// input width between enqueue and flush must surface as an error
		// here — never as a Forward panic inside PredictBatch.
		m := e.current()
		want := m.InputLen()
		for _, x := range xs {
			if len(x) != want {
				return nil, fmt.Errorf("%w: model %q now expects %d inputs, request was preprocessed to %d",
					ErrModelReloaded, e.name, want, len(x))
			}
		}
		return m.PredictBatch(xs, r.workers)
	}, name, r.mx, r.logger)
	if r.mx != nil {
		e.reqs, e.errs = r.mx.modelCounters(name)
		// The gauge closes over this entry's batcher; if the model is later
		// dropped by a reload, the series keeps reporting the drained
		// queue's depth (0) rather than disappearing mid-scrape. A model
		// re-registered under the same name re-registers the func, pointing
		// the series at the fresh batcher.
		b := e.batcher
		r.mx.reg.GaugeFunc("specserve_queue_depth",
			"Requests queued in a model's micro-batcher.",
			func() float64 { return float64(len(b.reqs)) }, obs.L("model", name))
	}
	return e
}

// Register adds (or replaces the weights of) a programmatic model. The
// model must be built.
func (r *Registry) Register(name string, m *nn.Model) error {
	if name == "" {
		return fmt.Errorf("serve: model name must not be empty")
	}
	if m == nil || m.InputLen() == 0 {
		return fmt.Errorf("serve: model %q is nil or unbuilt", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		e.swap(m)
		return nil
	}
	r.entries[name] = r.newEntry(name, "", m)
	return nil
}

// validPublishName reports whether name is usable as a model file base
// name: non-empty, no path separators or traversal, no hidden files.
func validPublishName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return false
	}
	return filepath.Base(name) == name
}

// Publish installs nn.Save-serialized weights under the given name: the
// bytes are validated by a full load, durably written into the registry's
// model directory (atomic tmp+rename, so a crashed publish never leaves a
// half-written file for the next reload to choke on), and hot-swapped into
// the live entry exactly like a reload. It is the write half of the closed
// recalibration loop: the retrainer publishes, then broadcasts reload to
// the rest of the fleet, whose directory scan picks the same file up.
func (r *Registry) Publish(name string, data []byte) (ModelInfo, error) {
	info, err := r.publish(name, data)
	if r.mx != nil {
		if err != nil {
			r.mx.publishesFailed.Inc()
		} else {
			r.mx.publishesOK.Inc()
		}
	}
	if err != nil {
		r.logger.Error("model publish failed", "model", name, "err", err)
	} else {
		r.logger.Info("model published", "model", name, "inputLen", info.InputLen)
	}
	return info, err
}

func (r *Registry) publish(name string, data []byte) (ModelInfo, error) {
	if !validPublishName(name) {
		return ModelInfo{}, fmt.Errorf("%w: %q", errBadModelName, name)
	}
	r.mu.RLock()
	dir := r.dir
	r.mu.RUnlock()
	if dir == "" {
		return ModelInfo{}, errNoModelDir
	}
	m, err := nn.Load(bytes.NewReader(data))
	if err != nil {
		return ModelInfo{}, fmt.Errorf("serve: publishing model %q: %w", name, err)
	}
	path := filepath.Join(dir, name+".json")
	tmp, err := os.CreateTemp(dir, "."+name+".publish-*")
	if err != nil {
		return ModelInfo{}, fmt.Errorf("serve: publishing model %q: %w", name, err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return ModelInfo{}, fmt.Errorf("serve: publishing model %q: %w", name, err)
	}
	r.mu.Lock()
	if e, ok := r.entries[name]; ok {
		e.source = path
		e.swap(m)
	} else {
		r.entries[name] = r.newEntry(name, path, m)
	}
	r.mu.Unlock()
	return ModelInfo{
		Name:      name,
		InputLen:  m.InputLen(),
		OutputLen: m.OutputLen(),
		Params:    m.NumParams(),
		Source:    path,
		LoadedAt:  time.Now(),
	}, nil
}

// LoadDir loads every *.json model file of dir and remembers dir for
// ReloadDir. It returns the loaded model names.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
	return r.ReloadDir()
}

// ReloadDir re-scans the registered directory: new files become new
// models, existing names get their weights swapped, and file-backed models
// whose file disappeared are dropped (their batcher drains first).
// Programmatic models are untouched. A file that fails to load aborts the
// reload with no partial swaps.
func (r *Registry) ReloadDir() ([]string, error) {
	names, err := r.reloadDir()
	if r.mx != nil {
		if err != nil {
			r.mx.reloadsFailed.Inc()
		} else {
			r.mx.reloadsOK.Inc()
		}
	}
	if err != nil {
		r.logger.Error("model reload failed", "err", err)
	} else {
		r.logger.Info("models reloaded", "models", len(names))
	}
	return names, err
}

func (r *Registry) reloadDir() ([]string, error) {
	r.mu.RLock()
	dir := r.dir
	r.mu.RUnlock()
	if dir == "" {
		return nil, fmt.Errorf("serve: no model directory configured")
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	type loaded struct {
		name, source string
		model        *nn.Model
	}
	var fresh []loaded
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		m, err := nn.Load(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", p, err)
		}
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		fresh = append(fresh, loaded{name: name, source: p, model: m})
	}
	var names []string
	var stale []*modelEntry
	r.mu.Lock()
	seen := make(map[string]bool)
	for _, l := range fresh {
		seen[l.name] = true
		names = append(names, l.name)
		if e, ok := r.entries[l.name]; ok {
			e.swap(l.model)
			continue
		}
		r.entries[l.name] = r.newEntry(l.name, l.source, l.model)
	}
	for name, e := range r.entries {
		if e.source != "" && !seen[name] {
			stale = append(stale, e)
			delete(r.entries, name)
		}
	}
	r.mu.Unlock()
	for _, e := range stale {
		e.batcher.Close()
	}
	return names, nil
}

// get resolves a model by name; an empty name resolves iff exactly one
// model is registered (the single-model convenience of small deployments).
func (r *Registry) get(name string) (*modelEntry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.entries) == 1 {
			for _, e := range r.entries {
				return e, nil
			}
		}
		if len(r.entries) == 0 {
			return nil, fmt.Errorf("serve: no models registered")
		}
		return nil, fmt.Errorf("%w (%d models registered)", errAmbiguousModel, len(r.entries))
	}
	e, ok := r.entries[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return e, nil
}

// List returns the registered models sorted by name.
func (r *Registry) List() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	infos := make([]ModelInfo, 0, len(r.entries))
	for _, e := range r.entries {
		e.mu.RLock()
		infos = append(infos, ModelInfo{
			Name:      e.name,
			InputLen:  e.model.InputLen(),
			OutputLen: e.model.OutputLen(),
			Params:    e.model.NumParams(),
			Source:    e.source,
			LoadedAt:  e.loadedAt,
		})
		e.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// close drains and stops every batcher.
func (r *Registry) close() {
	r.mu.Lock()
	entries := make([]*modelEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	for _, e := range entries {
		e.batcher.Close()
	}
}
