// Server-side secret-shared aggregation (COUNT / SUM / AVG).
//
// The query engines end with the matching rows' pre positions in hand;
// until now the only way to compute anything over those rows was to ship
// every row's share blob to the client and reconstruct — O(rows) bytes
// per query. Additive sharing makes the heavy half of an aggregate a
// server-side fold instead: Σ f_p = Σ client_p + Σ server_p, so each
// backend sums the server shares of its matching rows locally and
// returns ONE polynomial per chunk, the client adds the PRG-regenerated
// Σ client_p, and the wire cost drops from O(rows) to O(chunks) —
// following OBSCURE (Gupta et al.) for verifiable secret-shared
// aggregation. The fold never reveals anything new to the server: it
// already stores every share it sums, and a sum of uniformly random
// polynomials is again uniformly random.
//
// Semantics. SUM is the coefficient-wise sum of the matching node
// polynomials (the additive aggregate the scheme supports natively).
// COUNT folds the constant 1 per matching row — a sum of ones — so it
// rides the same chunked frames at one field element per chunk. AVG is
// derived client-side as SUM · (COUNT mod q)⁻¹ and is undefined when q
// divides the row count (AvgUndefinedError).
//
// Wraparound rule. Field arithmetic is mod q, so a sum of ones aliases
// every q rows. Servers therefore fold in chunks of at most q−1 rows:
// within a chunk the field count equals the true row count exactly, the
// client cross-checks it against the rows it asked for, and the exact
// total count is the int64 sum of chunk sizes — never a field element.
// The share fold itself (SUM) is exact at any size; only counters need
// the rule.
//
// Verification. The request may carry a random nonzero mask ρ_p per row
// (client-chosen, fresh per call). The server then also returns the
// masked fold Σ ρ_p·server_p per chunk. The client completes both
// aggregates (T = Σ f_p, V = Σ ρ_p·f_p) and checks the known-root
// invariant: every row matched the query's last name t, so (x − map(t))
// divides every f_p, hence T(map(t)) = 0 and V(map(t)) = 0 must both
// hold. A corrupted or wrongly-folded chunk violates a check with
// probability ≈ 1 − 1/q per independent equation, and any violation
// surfaces as a typed IntegrityError naming the chunk (and, behind a
// cluster, the shard). See DESIGN.md "Aggregation & verification" for
// the exact threat model — in particular what an adaptive malicious
// server can and cannot forge.
package filter

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"encshare/internal/gf"
	"encshare/internal/ring"
)

// AggKind selects the aggregate computed over the matching rows.
type AggKind int

const (
	// AggCount counts the matching rows (sum of ones, chunk-exact).
	AggCount AggKind = iota
	// AggSum sums the matching node polynomials coefficient-wise.
	AggSum
	// AggAvg is SUM scaled by the inverse of COUNT mod q, client-side.
	AggAvg
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	}
	return fmt.Sprintf("AggKind(%d)", int(k))
}

// AggregateFrameVersion versions the aggregate request/reply frames; a
// server rejects versions it does not speak with a deterministic error.
const AggregateFrameVersion = 1

// Wire aggregate kinds. AVG has no wire form: it asks for SUM frames
// and divides client-side.
const (
	wireAggCount uint8 = 1
	wireAggSum   uint8 = 2
)

// maxAggRows bounds how many rows one aggregate frame may name, so a
// hostile length prefix cannot drive a huge allocation before parsing.
const maxAggRows = 1 << 26

// AggregateRequest is the aggregate fold frame. Pres is the delta-varint
// packing of the strictly increasing row positions (PackPres) — a couple
// of bytes per row instead of eight, which matters because the request
// is the only O(rows) part of the exchange. Mask, when non-empty, holds
// one nonzero field element per packed row and requests the verification
// fold. ChunkRows bounds the fold chunk size; servers clamp it to
// [1, q−1] (0 means q−1).
type AggregateRequest struct {
	Ver       uint8
	Kind      uint8
	Pres      []byte
	Mask      []gf.Elem
	ChunkRows int
}

// AggregateChunk is one fold unit of the reply: the consecutive run of
// requested rows [FirstPre, LastPre] it covers, the exact row count
// (Rows, with Count its in-field image — equal because chunks stay
// below q), and for SUM frames the folded share blob plus, when a mask
// was sent, the masked fold and Σ ρ_p (MaskCnt).
type AggregateChunk struct {
	FirstPre int64
	LastPre  int64
	Rows     uint32
	Count    gf.Elem
	MaskCnt  gf.Elem
	Sum      []byte
	MaskSum  []byte
	// Origin is a client-side annotation: the cluster layer stamps each
	// chunk with the shard label it came from, so integrity failures
	// name the misbehaving shard. Servers leave it empty.
	Origin string
}

// AggregateReply carries the chunks in request order: concatenated, the
// chunks tile the requested row list exactly — the client verifies that
// before trusting any value.
type AggregateReply struct {
	Ver    uint8
	Chunks []AggregateChunk
}

// AggregateAPI is the aggregation part of ServerAPI. The in-process
// ServerFilter implements it directly; Remote speaks it over the wire;
// the cluster filter scatters one frame per shard and concatenates.
type AggregateAPI interface {
	AggregateBatch(req AggregateRequest) (AggregateReply, error)
}

// IntegrityError reports an aggregate reply that failed verification:
// chunks that do not tile the requested rows, a field count that
// contradicts the row count, or a folded value that violates the
// known-root invariant. It is deliberately NOT retryable — unlike a
// transport error, it is evidence about the data a shard returned, and
// must surface to the caller rather than be silently retried away.
type IntegrityError struct {
	// Origin names the shard the offending chunk came from, when the
	// cluster layer attributed it ("" for single-server sessions).
	Origin string
	// Pre is the first row position of the offending chunk (0 when the
	// failure is not attributable to one chunk).
	Pre    int64
	Reason string
}

func (e *IntegrityError) Error() string {
	s := "filter: aggregate integrity: " + e.Reason
	if e.Origin != "" {
		s += fmt.Sprintf(" (shard %s)", e.Origin)
	}
	if e.Pre != 0 {
		s += fmt.Sprintf(" (chunk at pre %d)", e.Pre)
	}
	return s
}

// AvgUndefinedError reports an AVG whose divisor vanished: the row count
// is a multiple of q (including zero rows), so COUNT mod q has no
// inverse and the average is undefined in the field.
type AvgUndefinedError struct {
	Count int64
	Q     uint32
}

func (e *AvgUndefinedError) Error() string {
	return fmt.Sprintf("filter: average undefined: %d matching rows ≡ 0 (mod q=%d)", e.Count, e.Q)
}

// --- row-list codec ----------------------------------------------------

// PackPres encodes a strictly increasing list of non-negative row
// positions as a count-prefixed delta-varint stream: ~1–2 bytes per row
// for the dense pre runs query results are, keeping the aggregate
// request an order of magnitude below the share blobs it replaces.
func PackPres(pres []int64) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+2*len(pres))
	buf = binary.AppendUvarint(buf, uint64(len(pres)))
	prev := int64(-1)
	for _, p := range pres {
		buf = binary.AppendUvarint(buf, uint64(p-prev))
		prev = p
	}
	return buf
}

// UnpackPres decodes a PackPres stream, enforcing everything the fold
// relies on: a sane row count, strictly increasing non-negative
// positions, no overflow, no trailing garbage. The input is
// client-controlled on the server and server-independent on the client,
// so every violation is a deterministic error, never a panic.
func UnpackPres(b []byte) ([]int64, error) {
	count, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, errors.New("filter: aggregate rows: bad count prefix")
	}
	b = b[k:]
	if count > maxAggRows {
		return nil, fmt.Errorf("filter: aggregate rows: count %d exceeds limit %d", count, maxAggRows)
	}
	if uint64(len(b)) < count { // every delta is at least one byte
		return nil, fmt.Errorf("filter: aggregate rows: %d bytes cannot hold %d rows", len(b), count)
	}
	out := make([]int64, 0, count)
	uprev := uint64(0) // prev+1, kept unsigned so overflow checks stay simple
	for i := uint64(0); i < count; i++ {
		d, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, errors.New("filter: aggregate rows: truncated delta")
		}
		b = b[k:]
		if d == 0 {
			return nil, errors.New("filter: aggregate rows: positions not strictly increasing")
		}
		if d > (1<<63)-uprev {
			return nil, errors.New("filter: aggregate rows: position overflow")
		}
		uprev += d
		out = append(out, int64(uprev-1))
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("filter: aggregate rows: %d trailing bytes", len(b))
	}
	return out, nil
}

// normChunkRows clamps a requested fold chunk bound to [1, q−1] — the
// wraparound-safe window (0 and out-of-range ask for the maximum).
func normChunkRows(req int, q uint32) int {
	max := int(q) - 1
	if req <= 0 || req > max {
		return max
	}
	return req
}

// --- server side -------------------------------------------------------

// AggregateBatch implements AggregateAPI on the in-process server
// filter: validate the frame, fold the named rows' server shares in
// wraparound-safe chunks (in parallel on the batch pool), and return one
// blob — plus the masked fold when a verification mask came along — per
// chunk. Shares are immutable, so the fold is a pure function of the
// request and replaying or duplicating a frame is always safe.
func (s *ServerFilter) AggregateBatch(req AggregateRequest) (AggregateReply, error) {
	if req.Ver != AggregateFrameVersion {
		return AggregateReply{}, fmt.Errorf("filter: aggregate frame version %d unsupported (want %d)", req.Ver, AggregateFrameVersion)
	}
	if req.Kind != wireAggCount && req.Kind != wireAggSum {
		return AggregateReply{}, fmt.Errorf("filter: unknown aggregate kind %d", req.Kind)
	}
	pres, err := UnpackPres(req.Pres)
	if err != nil {
		return AggregateReply{}, err
	}
	q := s.r.Field().Q()
	if len(req.Mask) != 0 {
		if len(req.Mask) != len(pres) {
			return AggregateReply{}, fmt.Errorf("filter: aggregate mask has %d elements for %d rows", len(req.Mask), len(pres))
		}
		for _, m := range req.Mask {
			if m == 0 || m >= q {
				return AggregateReply{}, fmt.Errorf("filter: aggregate mask element %d outside [1, %d]", m, q-1)
			}
		}
	}
	bound := normChunkRows(req.ChunkRows, q)
	n := len(pres)
	nChunks := (n + bound - 1) / bound
	chunks := make([]AggregateChunk, nChunks)
	errs := make([]error, nChunks)
	parallelFor(nChunks, s.poolSize(), func(ci int) {
		lo := ci * bound
		hi := lo + bound
		if hi > n {
			hi = n
		}
		var mask []gf.Elem
		if len(req.Mask) != 0 {
			mask = req.Mask[lo:hi]
		}
		errs[ci] = s.foldChunk(&chunks[ci], pres[lo:hi], mask, req.Kind)
	})
	for _, e := range errs {
		if e != nil {
			return AggregateReply{}, e
		}
	}
	s.aggregates.Add(1)
	return AggregateReply{Ver: AggregateFrameVersion, Chunks: chunks}, nil
}

// foldChunk folds one wraparound-safe chunk: at most q−1 rows, so the
// in-field sum of ones (Count) equals the true row count exactly.
func (s *ServerFilter) foldChunk(ck *AggregateChunk, seg []int64, mask []gf.Elem, kind uint8) error {
	f := s.r.Field()
	ck.FirstPre, ck.LastPre = seg[0], seg[len(seg)-1]
	ck.Rows = uint32(len(seg))
	ck.Count = gf.Elem(len(seg))
	for _, m := range mask {
		ck.MaskCnt = f.Add(ck.MaskCnt, m)
	}
	if kind == wireAggCount {
		// COUNT needs no share arithmetic, but the server still proves
		// it holds every named row — a count over rows it lost would
		// verify and still be wrong.
		for _, pre := range seg {
			if _, err := s.st.NodeMeta(pre); err != nil {
				return err
			}
		}
		return nil
	}
	sum := s.r.GetPoly()
	defer s.r.PutPoly(sum)
	var maskSum ring.Poly
	if mask != nil {
		maskSum = s.r.GetPoly()
		defer s.r.PutPoly(maskSum)
	}
	for i, pre := range seg {
		p, err := s.serverPoly(pre)
		if err != nil {
			return err
		}
		s.r.SumInto(sum, p)
		if maskSum != nil {
			s.r.AddScaledInPlace(maskSum, p, mask[i])
		}
	}
	ck.Sum = s.r.AppendBytes(make([]byte, 0, s.r.PolyBytes()), sum)
	if maskSum != nil {
		ck.MaskSum = s.r.AppendBytes(make([]byte, 0, s.r.PolyBytes()), maskSum)
	}
	return nil
}

// --- client side -------------------------------------------------------

// AggregateOptions tunes one client-side aggregate fold.
type AggregateOptions struct {
	// NoVerify skips the verification share (no mask travels, no
	// known-root check runs). The fold still tiles- and count-checks.
	NoVerify bool
	// ChunkRows bounds the server fold chunk (0 = q−1, the maximum
	// wraparound-safe window).
	ChunkRows int
	// CheckPoint is the known-root evaluation point map(last query
	// name): every matching row's polynomial vanishes there, which is
	// what the verification share is checked against. Zero — never a
	// map value — skips the root check (e.g. unmappable last names).
	CheckPoint gf.Elem
}

// Aggregate is the client-side result of an aggregate fold.
type Aggregate struct {
	Kind AggKind
	// Count is the exact number of rows folded (int64, never a field
	// element — the wraparound rule keeps it exact at any scale).
	Count int64
	// Sum is Σ f_p over the matching rows (nil for AggCount).
	Sum ring.Poly
	// Avg is Sum · (Count mod q)⁻¹ (AggAvg only).
	Avg ring.Poly
	// Folded is always true: every backend folds server-side. It stays
	// only because the benchmark module reads it, and goes with the next
	// change to that module.
	Folded bool
	// Verified reports that the verification share traveled and every
	// chunk passed the mask and known-root checks.
	Verified bool
}

// aggReqChunkSize bounds how many rows one aggregate request frame
// names. A variable so tests can shrink it to force multi-frame folds.
var aggReqChunkSize = 1 << 16

// aggRand sources the verification masks (crypto/rand; a variable so
// tests can pin it).
var aggRand io.Reader = cryptorand.Reader

// AggregateFold computes the requested aggregate over the given rows —
// the aggregation phase run after a query has produced its matching pre
// set — through server-side fold frames, in O(chunks) bytes.
func (c *Client) AggregateFold(pres []int64, kind AggKind, opts AggregateOptions) (*Aggregate, error) {
	if kind != AggCount && kind != AggSum && kind != AggAvg {
		return nil, fmt.Errorf("filter: unknown aggregate kind %v", kind)
	}
	sorted := sortedDedup(pres)
	agg := &Aggregate{Kind: kind, Count: int64(len(sorted)), Folded: true, Verified: !opts.NoVerify}
	if kind != AggCount {
		agg.Sum = c.r.NewPoly()
	}
	if err := c.foldFrames(agg.Sum, sorted, kind, opts); err != nil {
		return nil, err
	}
	if kind == AggAvg {
		if err := c.finishAvg(agg); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// sortedDedup returns the rows sorted strictly increasing — the order
// PackPres requires and the tiling check assumes. Engine results are
// already sorted and unique; this keeps the entry point safe for any
// caller.
func sortedDedup(pres []int64) []int64 {
	out := append([]int64(nil), pres...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 0
	for i, p := range out {
		if i == 0 || p != out[w-1] {
			out[w] = p
			w++
		}
	}
	return out[:w]
}

// foldFrames runs the aggregate through fold frames, verifying each
// chunk as it lands and adding the completed chunk sums into total (nil
// for COUNT).
func (c *Client) foldFrames(total ring.Poly, sorted []int64, kind AggKind, opts AggregateOptions) error {
	q := c.r.Field().Q()
	bound := normChunkRows(opts.ChunkRows, q)
	wireKind := wireAggSum
	if kind == AggCount {
		wireKind = wireAggCount
	}
	return chunked(len(sorted), aggReqChunkSize, func(lo, hi int) error {
		seg := sorted[lo:hi]
		var mask []gf.Elem
		if !opts.NoVerify {
			var err error
			if mask, err = randomMask(len(seg), q); err != nil {
				return err
			}
		}
		req := AggregateRequest{
			Ver:       AggregateFrameVersion,
			Kind:      wireKind,
			Pres:      PackPres(seg),
			Mask:      mask,
			ChunkRows: opts.ChunkRows,
		}
		reply, err := c.api.AggregateBatch(req)
		if err != nil {
			return err
		}
		if reply.Ver != AggregateFrameVersion {
			return &BadReplyError{Msg: fmt.Sprintf("aggregate reply version %d (want %d)", reply.Ver, AggregateFrameVersion)}
		}
		offs, err := chunkOffsets(seg, reply.Chunks, bound)
		if err != nil {
			return err
		}
		sums := make([]ring.Poly, len(reply.Chunks))
		errs := make([]error, len(reply.Chunks))
		parallelFor(len(reply.Chunks), c.poolSize(), func(i int) {
			ck := &reply.Chunks[i]
			sub := seg[offs[i] : offs[i]+int(ck.Rows)]
			var subMask []gf.Elem
			if mask != nil {
				subMask = mask[offs[i] : offs[i]+int(ck.Rows)]
			}
			sums[i], errs[i] = c.checkChunk(ck, sub, subMask, kind, opts.CheckPoint)
		})
		var firstErr error
		for i := range reply.Chunks {
			if errs[i] != nil && firstErr == nil {
				firstErr = errs[i]
			}
			if sums[i] != nil {
				if firstErr == nil {
					c.r.AddInPlace(total, sums[i])
				}
				c.r.PutPoly(sums[i])
			}
		}
		return firstErr
	})
}

// chunkOffsets validates that the reply chunks tile the requested rows
// exactly — consecutive runs, in order, within the wraparound bound —
// and returns each chunk's starting offset into seg. Everything after
// this walk may index seg by chunk safely.
func chunkOffsets(seg []int64, chunks []AggregateChunk, bound int) ([]int, error) {
	offs := make([]int, len(chunks))
	off := 0
	for i := range chunks {
		ck := &chunks[i]
		rows := int(ck.Rows)
		if rows < 1 || rows > bound {
			return nil, chunkIntegrityErr(ck, fmt.Sprintf("chunk of %d rows outside [1, %d]", rows, bound))
		}
		if off+rows > len(seg) {
			return nil, chunkIntegrityErr(ck, "chunks cover more rows than requested")
		}
		sub := seg[off : off+rows]
		if ck.FirstPre != sub[0] || ck.LastPre != sub[rows-1] {
			return nil, chunkIntegrityErr(ck, "chunk bounds do not tile the requested rows")
		}
		offs[i] = off
		off += rows
	}
	if off != len(seg) {
		return nil, &IntegrityError{Reason: fmt.Sprintf("chunks cover %d of %d requested rows", off, len(seg))}
	}
	return offs, nil
}

func chunkIntegrityErr(ck *AggregateChunk, reason string) error {
	return &IntegrityError{Origin: ck.Origin, Pre: ck.FirstPre, Reason: reason}
}

// checkChunk verifies one chunk and, for SUM frames, completes the
// aggregate by folding the client shares in (returning the completed
// chunk sum in a pooled polynomial the caller must PutPoly).
func (c *Client) checkChunk(ck *AggregateChunk, seg []int64, mask []gf.Elem, kind AggKind, checkPoint gf.Elem) (ring.Poly, error) {
	f := c.r.Field()
	// The chunk is below q rows, so the in-field sum of ones must match
	// the true row count exactly — the wraparound rule at work.
	if ck.Count != gf.Elem(len(seg)) {
		return nil, chunkIntegrityErr(ck, fmt.Sprintf("field count %d for %d rows", ck.Count, len(seg)))
	}
	if mask != nil {
		var want gf.Elem
		for _, m := range mask {
			want = f.Add(want, m)
		}
		if ck.MaskCnt != want {
			return nil, chunkIntegrityErr(ck, "masked count mismatch")
		}
	}
	if kind == AggCount {
		if len(ck.Sum) != 0 || len(ck.MaskSum) != 0 {
			return nil, &BadReplyError{Msg: "count chunk carried share blobs"}
		}
		return nil, nil
	}
	T := c.r.GetPoly()
	if err := c.r.DecodeInto(T, ck.Sum); err != nil {
		c.r.PutPoly(T)
		return nil, chunkIntegrityErr(ck, "sum blob: "+err.Error())
	}
	c.Counters.Decodes.Add(1)
	c.scheme.AddShares(T, seg)
	c.Counters.Folds.Add(int64(len(seg)))
	if checkPoint != 0 {
		if c.r.Eval(T, checkPoint) != 0 {
			c.r.PutPoly(T)
			return nil, chunkIntegrityErr(ck, "folded sum violates the known-root invariant")
		}
		if mask != nil {
			V := c.r.GetPoly()
			if err := c.r.DecodeInto(V, ck.MaskSum); err != nil {
				c.r.PutPoly(V)
				c.r.PutPoly(T)
				return nil, chunkIntegrityErr(ck, "verification blob: "+err.Error())
			}
			c.Counters.Decodes.Add(1)
			c.scheme.AddSharesScaled(V, seg, mask)
			bad := c.r.Eval(V, checkPoint) != 0
			c.r.PutPoly(V)
			if bad {
				c.r.PutPoly(T)
				return nil, chunkIntegrityErr(ck, "verification share violates the known-root invariant")
			}
		}
	}
	return T, nil
}

// finishAvg derives AVG = SUM · (COUNT mod q)⁻¹.
func (c *Client) finishAvg(agg *Aggregate) error {
	f := c.r.Field()
	cnt := gf.Elem(agg.Count % int64(f.Q()))
	if cnt == 0 {
		return &AvgUndefinedError{Count: agg.Count, Q: f.Q()}
	}
	agg.Avg = c.r.AddScaledInPlace(c.r.NewPoly(), agg.Sum, f.Inv(cnt))
	return nil
}

// randomMask draws n independent uniform elements of [1, q−1] from
// aggRand (rejection-sampled, so exactly uniform).
func randomMask(n int, q uint32) ([]gf.Elem, error) {
	out := make([]gf.Elem, n)
	span := uint64(q - 1)
	limit := (uint64(1) << 32) - ((uint64(1) << 32) % span)
	buf := make([]byte, 4*n)
	i := 0
	for i < n {
		if _, err := io.ReadFull(aggRand, buf); err != nil {
			return nil, err
		}
		for off := 0; off+4 <= len(buf) && i < n; off += 4 {
			v := uint64(binary.BigEndian.Uint32(buf[off:]))
			if v >= limit {
				continue
			}
			out[i] = gf.Elem(1 + v%span)
			i++
		}
	}
	return out, nil
}
