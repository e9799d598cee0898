package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"

	"mdbgp"
	"mdbgp/internal/baselines"
	"mdbgp/internal/wire"
)

// Ingest modes reported in job JSON and submit responses. "resident" is a
// graph materialized as an in-memory CSR (text uploads, and binary uploads
// within budget); "out-of-core" is a binary upload above
// Config.MaxResidentEdges, validated and spilled to disk, solved by
// restreaming the spill through a streaming engine.
const (
	ingestModeResident = "resident"
	ingestModeOOC      = "out-of-core"
)

// ingestInfo is the outcome of body ingestion, whichever codec and mode
// produced it — the unit dispatch operates on.
type ingestInfo struct {
	g     *mdbgp.Graph // nil when mode is out-of-core
	n     int
	m     int64
	hash  string // canonical content hash
	mode  string
	spill *spillFile // non-nil only for out-of-core
	// body is the upload digest dispatch records on g's graph-cache entry;
	// zero when the upload must not be served from that record (deltas,
	// out-of-core, a hash taken from a trusted header).
	body   bodyDigest
	reused bool // the graph came from the graph cache by body digest
}

// Codec tags that lead every upload digest, so identical bytes sent as text
// and as binary never share a record.
const (
	codecText   = 't'
	codecBinary = 'b'
)

// digestUpload is the SHA-256 of a resident upload's codec tag and every
// body byte: the key a byte-identical re-upload is recognized by.
func digestUpload(codec byte, body []byte) bodyDigest {
	h := sha256.New()
	h.Write([]byte{codec})
	h.Write(body)
	var d bodyDigest
	h.Sum(d[:0])
	return d
}

// readUpload reads a resident upload into one buffer that starts with
// prefix, the bytes the caller already consumed from body. The buffer is
// presized from Content-Length, capped by MaxBodyBytes, so a body of the
// announced size is read without regrowing it; ReadFrom wants MinRead free
// bytes before each read, the one that reports EOF included. On error it
// writes the HTTP response (413 past MaxBodyBytes) and returns false.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request, body io.Reader, prefix []byte) ([]byte, bool) {
	size := int64(len(prefix))
	if r.ContentLength > size {
		size = min(r.ContentLength, s.cfg.MaxBodyBytes)
	}
	var buf bytes.Buffer
	buf.Grow(int(size) + bytes.MinRead)
	buf.Write(prefix)
	if _, err := buf.ReadFrom(body); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return nil, false
		}
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading body: %v", err))
		return nil, false
	}
	return buf.Bytes(), true
}

// reuseUpload serves a byte-identical re-upload from the graph cache: when
// an entry holds digest d, the request goes on with the retained graph and
// its hash, which is where decoding, validating and hashing the body again
// would have led dispatch. A trusted hash header naming another hash takes
// the slow path, which honors the header. Returns nil on a miss.
func (s *Server) reuseUpload(r *http.Request, d bodyDigest) *ingestInfo {
	hash, g, ok := s.graphs.lookupBody(d)
	if !ok {
		return nil
	}
	if h := s.trustedHash(r); h != "" && h != hash {
		return nil
	}
	s.met.ingestReused.Add(1)
	return &ingestInfo{g: g, n: g.N(), m: g.M(), hash: hash, mode: ingestModeResident, body: d, reused: true}
}

// residentIngest completes a resident upload that passed every check. The
// graph hash comes from a trusted header when one is configured and well
// formed, otherwise from g; only a hash computed here lets dispatch record
// the upload's digest d.
func (s *Server) residentIngest(r *http.Request, g *mdbgp.Graph, d bodyDigest) *ingestInfo {
	ing := &ingestInfo{g: g, n: g.N(), m: g.M(), mode: ingestModeResident}
	if ing.hash = s.trustedHash(r); ing.hash == "" {
		ing.hash = g.HashString()
		ing.body = d
	}
	return ing
}

// trustedHash is the graph hash a trusted router forwarded, or "" when the
// server does not trust the header or it is malformed. The header is an
// optimization hint, never load-bearing for correctness: without it the
// server hashes the graph itself.
func (s *Server) trustedHash(r *http.Request) string {
	if !s.cfg.TrustHashHeader {
		return ""
	}
	return normalizeHash(r.Header.Get(GraphHashHeader))
}

// spillFile is a validated wire-format graph parked on disk for out-of-core
// solving. Exactly one dispatch outcome consumes it: the job that solves from
// it removes it on finish; every path that does not enqueue (cache hit,
// coalesce, 429, shutdown) removes it immediately. remove is idempotent so
// overlapping cleanup paths are safe.
type spillFile struct {
	path string
	hdr  wire.Header
	s    *Server
	once sync.Once
}

func (sp *spillFile) remove() {
	if sp == nil {
		return
	}
	sp.once.Do(func() {
		if err := os.Remove(sp.path); err != nil && !os.IsNotExist(err) {
			sp.s.log.Error("removing spill", "path", sp.path, "error", err.Error())
		}
		sp.s.met.spillActive.Add(-1)
	})
}

// rowSource returns a baselines.RowSource that re-opens and re-decodes the
// spill on every pass — the restreaming contract FennelStream needs. Each
// pass re-verifies the wire chunk CRCs, so bit rot between ingest and solve
// surfaces as a failed job, not a silently wrong partition (the same
// discipline internal/cachestore applies to cached results).
func (sp *spillFile) rowSource() baselines.RowSource {
	return func(fn func(v int, adj []int32) error) error {
		f, err := os.Open(sp.path)
		if err != nil {
			return fmt.Errorf("server: opening spill: %w", err)
		}
		defer f.Close()
		d, err := wire.NewDecoder(f)
		if err != nil {
			return fmt.Errorf("server: spill corrupted: %w", err)
		}
		return d.Rows(fn)
	}
}

// symmetryXOR is a one-pass probabilistic symmetry check for the out-of-core
// path, where the graph is never materialized so Graph.Validate's pairing
// check is unavailable. Every directed arc (v,w) XORs the seeded hash of its
// unordered pair {v,w} into an accumulator: each vertex's row appears exactly
// once and is internally duplicate-free, so a pair can contribute at most
// twice — a symmetric stream cancels to zero, an unpaired arc leaves a
// residue. The seed is drawn fresh per ingest, so a hostile uploader cannot
// precompute residues that cancel; a false accept requires a blind 64-bit
// hash collision across the unpaired arcs.
type symmetryXOR struct {
	seed maphash.Seed
	acc  uint64
}

func newSymmetryXOR() *symmetryXOR { return &symmetryXOR{seed: maphash.MakeSeed()} }

func (s *symmetryXOR) add(v int, adj []int32) {
	var b [8]byte
	for _, w := range adj {
		lo, hi := uint32(v), uint32(w)
		if lo > hi {
			lo, hi = hi, lo
		}
		binary.LittleEndian.PutUint32(b[:4], lo)
		binary.LittleEndian.PutUint32(b[4:], hi)
		s.acc ^= maphash.Bytes(s.seed, b[:])
	}
}

func (s *symmetryXOR) symmetric() bool { return s.acc == 0 }

// ingestBinary handles a Content-Type: application/x-mdbgp-csr body: parse
// and validate the wire header, then either materialize the CSR (within the
// resident-edge budget) or validate-and-spill the stream to disk for an
// out-of-core solve. A resident body is read whole and digested first, so a
// byte-identical re-upload skips decoding, validation and hashing (see
// reuseUpload); an out-of-core body streams to the spill and is never
// buffered. On error it writes the HTTP response and returns nil.
// It may rewrite req.opts.Engine (and req.engine) when auto-routing an
// oversized graph to a streaming engine.
func (s *Server) ingestBinary(w http.ResponseWriter, r *http.Request, req *submitRequest) *ingestInfo {
	s.met.binarySubmitted.Add(1)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var hb [wire.HeaderSize]byte
	if _, err := io.ReadFull(body, hb[:]); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading wire header: %v (see docs/WIRE_FORMAT.md)", err))
		return nil
	}
	hdr, err := wire.ParseHeader(hb[:])
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	if hdr.N == 0 || hdr.Arcs == 0 {
		httpError(w, http.StatusBadRequest, "empty graph: the wire stream must carry at least one edge")
		return nil
	}
	if hdr.Weighted() {
		// The serving cache is keyed on the CSR content hash alone; accepting
		// side-channel weights would let two uploads with the same key ask for
		// different solves. Weighted files are an offline (CLI) feature.
		httpError(w, http.StatusBadRequest, "weight section not supported on this endpoint (the cache is keyed on the graph alone); strip weights or pass dims= instead")
		return nil
	}
	if s.cfg.MaxVertexID > 0 && hdr.N-1 > uint64(s.cfg.MaxVertexID) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("vertex id %d exceeds limit %d", hdr.N-1, s.cfg.MaxVertexID))
		return nil
	}

	if s.cfg.MaxResidentEdges > 0 && hdr.Edges() > s.cfg.MaxResidentEdges {
		return s.ingestOutOfCore(w, req, hdr, hb[:], body, r)
	}

	raw, ok := s.readUpload(w, r, body, hb[:])
	if !ok {
		return nil
	}
	d := digestUpload(codecBinary, raw)
	if ing := s.reuseUpload(r, d); ing != nil {
		return ing
	}
	g, _, err := wire.Decode(bytes.NewReader(raw))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	// The wire decoder enforces row-local invariants only; the engines
	// additionally assume a symmetric canonical CSR, so validate before
	// dispatch exactly as cmd/mdbgp does after wire.Decode.
	if err := g.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("binary graph invalid: %v (the payload must be the canonical symmetric CSR; see docs/WIRE_FORMAT.md)", err))
		return nil
	}
	return s.residentIngest(r, g, d)
}

// ingestOutOfCore is the above-budget binary path: route to a streaming
// engine (auto-selecting one for default requests), validate the stream
// chunk by chunk while teeing it to a spill file, and hand dispatch a
// graph-free ingestInfo. The spill write follows internal/cachestore's
// atomic discipline — write to a .tmp name, fsync, rename — so a crash
// mid-ingest leaves only a .tmp orphan, never a plausible-looking spill;
// the wire format's per-chunk CRCs take the role of the store's checksums
// and are re-verified on every later read pass.
func (s *Server) ingestOutOfCore(w http.ResponseWriter, req *submitRequest, hdr wire.Header, hb []byte, body io.Reader, r *http.Request) *ingestInfo {
	// Engine routing first — it needs no I/O, so an unroutable request fails
	// before the server spends disk bandwidth on it. Only a fully default
	// request (no explicit engine, no explicit dims) is auto-routed: changing
	// the solver behind an explicit choice would be a silent downgrade.
	if req.opts.Engine == "" {
		req.opts.Engine = "fennel"
		eng, err := mdbgp.LookupEngine(req.opts.Engine)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return nil
		}
		req.engine = eng.Info()
	}
	if !req.engine.Streaming || req.dimsExplicit {
		names := make([]string, 0, 2)
		for _, e := range mdbgp.Engines() {
			if e.Streaming {
				names = append(names, e.Name)
			}
		}
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"graph has %d edges, above the resident budget of %d; out-of-core solving requires a streaming engine (%s) with default dims — or raise -max-resident-edges",
			hdr.Edges(), s.cfg.MaxResidentEdges, strings.Join(names, ", ")))
		return nil
	}

	f, err := os.CreateTemp(s.cfg.SpillDir, "mdbgp-spill-*.tmp")
	if err != nil {
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("creating spill: %v", err))
		return nil
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := f.Write(hb); err != nil {
		cleanup()
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("writing spill: %v", err))
		return nil
	}
	// The decoder drives the tee: every body byte it consumes lands in the
	// spill, and because Finish rejects trailing bytes the spill ends up
	// holding exactly the wire stream — fully validated (structure + CRCs)
	// before anything downstream can trust it. The symmetry accumulator
	// rides the same pass: the streaming engines and ComputeStreamStats
	// assume a symmetric canonical CSR, and this path never materializes a
	// Graph to run Validate on.
	sym := newSymmetryXOR()
	d, err := wire.NewDecoder(io.MultiReader(bytes.NewReader(hb), io.TeeReader(body, f)))
	if err == nil {
		err = d.Rows(func(v int, adj []int32) error {
			sym.add(v, adj)
			return nil
		})
	}
	if err == nil {
		err = d.Finish()
	}
	if err == nil && !sym.symmetric() {
		err = errors.New("asymmetric adjacency: some edge is listed at only one endpoint (the payload must be the canonical symmetric CSR; see docs/WIRE_FORMAT.md)")
	}
	if err != nil {
		cleanup()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return nil
		}
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	if err := f.Sync(); err != nil {
		cleanup()
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("syncing spill: %v", err))
		return nil
	}
	size, _ := f.Seek(0, io.SeekCurrent)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("closing spill: %v", err))
		return nil
	}
	final := strings.TrimSuffix(tmp, ".tmp")
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		httpError(w, http.StatusInternalServerError, fmt.Sprintf("publishing spill: %v", err))
		return nil
	}
	s.met.spillActive.Add(1)
	s.met.spillBytes.Add(size)
	sp := &spillFile{path: final, hdr: hdr, s: s}

	hash := s.trustedHash(r)
	if hash == "" {
		hash, _, err = wire.HashGraph(func() (io.ReadCloser, error) {
			return os.Open(sp.path)
		})
		if err != nil {
			sp.remove()
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("hashing spill: %v", err))
			return nil
		}
	}
	s.met.oocSubmitted.Add(1)
	return &ingestInfo{n: int(hdr.N), m: hdr.Edges(), hash: hash, mode: ingestModeOOC, spill: sp}
}

// streamSolve runs the out-of-core solve: a streaming Fennel over the spill
// (opt.Passes restreams), then one extra scoring pass. Natural-order
// visiting makes it deterministic with no RNG, so results are identical at
// any worker count — but different from the in-core fennel engine's
// permuted-order solve, which is why dispatch keys out-of-core results under
// a distinct ":ooc" cache-key suffix.
func (s *Server) streamSolve(sp *spillFile, n int, m int64, opts mdbgp.Options) (*mdbgp.Result, error) {
	src := sp.rowSource()
	asgn, err := baselines.FennelStream(n, m, opts.K, src, baselines.FennelOptions{
		Slack: 1 + opts.Epsilon, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	st, err := baselines.ComputeStreamStats(n, m, opts.K, src, asgn)
	if err != nil {
		return nil, err
	}
	// Imbalances follow the default dims order (vertices, edges) — the only
	// dims an out-of-core request can reach dispatch with.
	return &mdbgp.Result{
		Assignment:   asgn,
		EdgeLocality: st.EdgeLocality,
		CutEdges:     st.CutEdges,
		Imbalances:   []float64{st.VertexImb, st.DegreeImb},
	}, nil
}
