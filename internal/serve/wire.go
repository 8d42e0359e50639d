package serve

import (
	"encoding/json"
	"strconv"

	"repro/internal/wire"
)

// The hot messages of the serving API — rank, membership, diffusion,
// membership-row and fold-in — are written and read here with
// internal/wire instead of reflection. The format is unchanged: what an
// AppendWire method writes, encoding/json decodes to the identical value
// (floats bit-identical, nil slices null, empty ones []), and every
// decoder below answers exactly as json.Unmarshal does, because on any
// input the scanner does not recognise — indented or reordered input is
// recognised; escapes, null, unknown, duplicate or differently-cased
// keys are not — it IS json.Unmarshal.

// wireAppender is a message that encodes itself.
type wireAppender interface {
	AppendWire(dst []byte) ([]byte, error)
}

func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendUint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(dst, key...), v, 10)
}

// appendGeneration writes the omitempty generation member.
func appendGeneration(dst []byte, key string, gen uint64) []byte {
	if gen == 0 {
		return dst
	}
	return appendUint(dst, key, gen)
}

func appendFloat(dst []byte, key string, v float64) ([]byte, error) {
	return wire.AppendFloat(append(dst, key...), v)
}

func appendFloats(dst []byte, key string, v []float64) ([]byte, error) {
	return wire.AppendFloats(append(dst, key...), v)
}

func appendWeights(dst []byte, key string, ws []CommunityWeight) ([]byte, error) {
	dst = append(dst, key...)
	if ws == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i, w := range ws {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, `{"community":`, w.Community)
		if dst, err = appendFloat(dst, `,"weight":`, w.Weight); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// once notes the sighting of one member of an object; a second sighting
// fails the scan, since which of two values wins is encoding/json's call.
func once(s *wire.Scanner, seen *uint, bit uint) {
	if *seen&bit != 0 {
		s.Fail()
	}
	*seen |= bit
}

// decode finishes every DecodeWire: what the scanner could not read goes
// to encoding/json, on a value the scanner's partial work is wiped from.
func decode[T any](v *T, scanned bool, data []byte) error {
	if scanned {
		return nil
	}
	*v = *new(T)
	return json.Unmarshal(data, v)
}

// AppendWire appends the result as compact JSON.
func (r *RankResult) AppendWire(dst []byte) ([]byte, error) {
	dst = appendUint(dst, `{"version":`, r.Version)
	dst = appendGeneration(dst, `,"generation":`, r.Generation)
	dst = append(dst, `,"entries":`...)
	if r.Entries == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	var err error
	for i := range r.Entries {
		e := &r.Entries[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, `{"community":`, e.Community)
		dst = wire.AppendString(append(dst, `,"label":`...), e.Label)
		if dst, err = appendFloat(dst, `,"score":`, e.Score); err != nil {
			return dst, err
		}
		dst = appendInt(dst, `,"members":`, e.Members)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// DecodeWire parses a rank reply in any JSON spelling.
func (r *RankResult) DecodeWire(data []byte) error { return decode(r, r.scan(data), data) }

func (r *RankResult) scan(data []byte) bool {
	*r = RankResult{}
	s := wire.NewScanner(data)
	var seen uint
	for it := s.Object(); it.Next(); {
		switch string(s.Key()) {
		case "version":
			once(&s, &seen, 1)
			r.Version = s.Uint64()
		case "generation":
			once(&s, &seen, 2)
			r.Generation = s.Uint64()
		case "entries":
			once(&s, &seen, 4)
			r.Entries = make([]RankEntry, 0, 16)
			for arr := s.Array(); arr.Next(); {
				var e RankEntry
				var eseen uint
				for o := s.Object(); o.Next(); {
					switch string(s.Key()) {
					case "community":
						once(&s, &eseen, 1)
						e.Community = s.Int()
					case "label":
						once(&s, &eseen, 2)
						e.Label = string(s.String())
					case "score":
						once(&s, &eseen, 4)
						e.Score = s.Float64()
					case "members":
						once(&s, &eseen, 8)
						e.Members = s.Int()
					default:
						s.Fail()
					}
				}
				r.Entries = append(r.Entries, e)
			}
		default:
			s.Fail()
		}
	}
	return s.End()
}

// AppendWire appends the result as compact JSON.
func (r *MembershipResult) AppendWire(dst []byte) ([]byte, error) {
	dst = appendInt(dst, `{"user":`, r.User)
	dst = appendUint(dst, `,"version":`, r.Version)
	dst = appendGeneration(dst, `,"generation":`, r.Generation)
	dst, err := appendWeights(dst, `,"communities":`, r.Communities)
	return append(dst, '}'), err
}

// AppendWire appends the result as compact JSON.
func (r *DiffusionResult) AppendWire(dst []byte) ([]byte, error) {
	dst = appendUint(dst, `{"version":`, r.Version)
	dst = appendGeneration(dst, `,"generation":`, r.Generation)
	dst, err := appendFloat(dst, `,"logit":`, r.Logit)
	if err != nil {
		return dst, err
	}
	dst, err = appendFloat(dst, `,"prob":`, r.Prob)
	return append(dst, '}'), err
}

// AppendWire appends the result as compact JSON.
func (r *PiRowResult) AppendWire(dst []byte) ([]byte, error) {
	dst = appendInt(dst, `{"user":`, r.User)
	dst = appendUint(dst, `,"version":`, r.Version)
	dst = appendGeneration(dst, `,"generation":`, r.Generation)
	dst, err := appendFloats(dst, `,"row":`, r.Row)
	return append(dst, '}'), err
}

// DecodePiRowRaw reads a /api/pirow reply for relaying: the generation
// the row came from, and the row as the JSON text the owner wrote
// (aliasing data), so whoever receives it next parses the very digits
// the owner formatted.
func DecodePiRowRaw(data []byte) (gen uint64, row []byte, err error) {
	if gen, row, ok := scanPiRow(data); ok {
		return gen, row, nil
	}
	var res PiRowResult
	if err := json.Unmarshal(data, &res); err != nil {
		return 0, nil, err
	}
	row, err = wire.AppendFloats(nil, res.Row)
	return res.Generation, row, err
}

func scanPiRow(data []byte) (gen uint64, row []byte, ok bool) {
	s := wire.NewScanner(data)
	var seen uint
	for it := s.Object(); it.Next(); {
		switch string(s.Key()) {
		case "user":
			once(&s, &seen, 1)
			s.Int()
		case "version":
			once(&s, &seen, 2)
			s.Uint64()
		case "generation":
			once(&s, &seen, 4)
			gen = s.Uint64()
		case "row":
			once(&s, &seen, 8)
			row = s.RawFloats()
		default:
			s.Fail()
		}
	}
	return gen, row, s.End() && row != nil
}

// AppendWire appends the result as compact JSON.
func (r *FoldInResult) AppendWire(dst []byte) ([]byte, error) {
	dst = appendUint(dst, `{"version":`, r.Version)
	dst, err := appendFloats(dst, `,"pi":`, r.Pi)
	if err != nil {
		return dst, err
	}
	if dst, err = appendWeights(dst, `,"top":`, r.Top); err != nil {
		return dst, err
	}
	if dst, err = appendFloats(dst, `,"topicMixture":`, r.TopicMixture); err != nil {
		return dst, err
	}
	dst = wire.AppendInt32s(append(dst, `,"docCommunity":`...), r.DocCommunity)
	dst = wire.AppendInt32s(append(dst, `,"docTopic":`...), r.DocTopic)
	return append(dst, '}'), nil
}

// AppendWire appends the request as compact JSON.
func (r *FoldInRequest) AppendWire(dst []byte) ([]byte, error) {
	dst = append(dst, `{"docs":`...)
	if r.Docs == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, doc := range r.Docs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendInt32s(dst, doc)
		}
		dst = append(dst, ']')
	}
	if len(r.Friends) > 0 {
		dst = wire.AppendInt32s(append(dst, `,"friends":`...), r.Friends)
	}
	if len(r.FriendRows) > 0 {
		dst = append(dst, `,"friendRows":[`...)
		var err error
		for i, fr := range r.FriendRows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendInt(dst, `{"user":`, int(fr.User))
			if dst, err = appendFloats(dst, `,"row":`, fr.Row); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = appendGeneration(dst, `,"rowsGeneration":`, r.RowsGeneration)
	dst = appendUint(dst, `,"seed":`, r.Seed)
	if r.Sweeps != 0 {
		dst = appendInt(dst, `,"sweeps":`, r.Sweeps)
	}
	if r.TopK != 0 {
		dst = appendInt(dst, `,"topK":`, r.TopK)
	}
	return append(dst, '}'), nil
}

// DecodeWire parses a fold-in request body in any JSON spelling.
func (r *FoldInRequest) DecodeWire(data []byte) error { return decode(r, r.scan(data), data) }

func (r *FoldInRequest) scan(data []byte) bool {
	*r = FoldInRequest{}
	s := wire.NewScanner(data)
	var seen uint
	for it := s.Object(); it.Next(); {
		switch string(s.Key()) {
		case "docs":
			once(&s, &seen, 1)
			r.Docs = [][]int32{}
			for arr := s.Array(); arr.Next(); {
				r.Docs = append(r.Docs, s.Int32s())
			}
		case "friends":
			once(&s, &seen, 2)
			r.Friends = s.Int32s()
		case "friendRows":
			once(&s, &seen, 4)
			r.FriendRows = []FriendRow{}
			for arr := s.Array(); arr.Next(); {
				var fr FriendRow
				var fseen uint
				for o := s.Object(); o.Next(); {
					switch string(s.Key()) {
					case "user":
						once(&s, &fseen, 1)
						fr.User = s.Int32()
					case "row":
						once(&s, &fseen, 2)
						fr.Row = s.Floats()
					default:
						s.Fail()
					}
				}
				r.FriendRows = append(r.FriendRows, fr)
			}
		case "rowsGeneration":
			once(&s, &seen, 8)
			r.RowsGeneration = s.Uint64()
		case "seed":
			once(&s, &seen, 16)
			r.Seed = s.Uint64()
		case "sweeps":
			once(&s, &seen, 32)
			r.Sweeps = s.Int()
		case "topK":
			once(&s, &seen, 64)
			r.TopK = s.Int()
		default:
			s.Fail()
		}
	}
	return s.End()
}

// FoldInEnvelope is what a router needs of a fold-in request: the
// friends whose rows may need hydrating and the seed it routes by. The
// documents are passed over, not decoded, and the body is forwarded as
// the client wrote it, with hydrated rows added by WithRows.
type FoldInEnvelope struct {
	Friends []int32
	Seed    uint64

	body  []byte
	brace int  // offset of the request object's closing brace
	empty bool // the object has no members
}

// ScanFoldIn reads the envelope of a fold-in request body. A body that
// is valid JSON but not in a shape rows can be added to — it carries
// friendRows of its own, or spells a member in a way only encoding/json
// resolves — is re-encoded first (without rows: a router always supplies
// its own), so the only error is a body that is not a FoldInRequest.
func ScanFoldIn(body []byte) (FoldInEnvelope, error) {
	if env, ok := scanFoldIn(body); ok {
		return env, nil
	}
	var req FoldInRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return FoldInEnvelope{}, err
	}
	req.FriendRows, req.RowsGeneration = nil, 0
	body, _ = req.AppendWire(nil) // a request with no rows holds no floats to reject
	env, _ := scanFoldIn(body)
	return env, nil
}

func scanFoldIn(body []byte) (FoldInEnvelope, bool) {
	env := FoldInEnvelope{body: body, empty: true}
	s := wire.NewScanner(body)
	var seen uint
	for it := s.Object(); it.Next(); {
		env.empty = false
		switch string(s.Key()) {
		case "friends":
			once(&s, &seen, 1)
			env.Friends = s.Int32s()
		case "seed":
			once(&s, &seen, 2)
			env.Seed = s.Uint64()
		case "docs", "sweeps", "topK":
			s.Skip()
		default:
			s.Fail()
		}
	}
	env.brace = s.Pos() - 1
	return env, s.End()
}

// Body is the request without hydrated rows.
func (env *FoldInEnvelope) Body() []byte { return env.body }

// WithRows returns a new request body carrying a hydrated row (JSON
// text, as DecodePiRowRaw returns it) for each of users, all from
// generation gen.
func (env *FoldInEnvelope) WithRows(users []int32, rows [][]byte, gen uint64) []byte {
	n := len(env.body) + 64
	for _, row := range rows {
		n += len(row) + 32
	}
	out := append(make([]byte, 0, n), env.body[:env.brace]...)
	if !env.empty {
		out = append(out, ',')
	}
	out = append(out, `"friendRows":[`...)
	for i, u := range users {
		if i > 0 {
			out = append(out, ',')
		}
		out = appendInt(out, `{"user":`, int(u))
		out = append(append(out, `,"row":`...), rows[i]...)
		out = append(out, '}')
	}
	out = append(out, ']')
	out = appendGeneration(out, `,"rowsGeneration":`, gen)
	return append(out, env.body[env.brace:]...)
}

// AppendDiffusionRowsRequest appends a POST /api/diffusion body whose
// vrow is JSON text as DecodePiRowRaw returns it, read from generation
// gen.
func AppendDiffusionRowsRequest(dst []byte, u, v, topic, bucket int, vrow []byte, gen uint64) []byte {
	dst = appendInt(dst, `{"u":`, u)
	dst = appendInt(dst, `,"v":`, v)
	dst = appendInt(dst, `,"topic":`, topic)
	dst = appendInt(dst, `,"bucket":`, bucket)
	dst = append(append(dst, `,"vrow":`...), vrow...)
	dst = appendGeneration(dst, `,"rowsGeneration":`, gen)
	return append(dst, '}')
}

// DecodeWire parses a POST /api/diffusion body in any JSON spelling.
func (r *DiffusionRowsRequest) DecodeWire(data []byte) error { return decode(r, r.scan(data), data) }

func (r *DiffusionRowsRequest) scan(data []byte) bool {
	*r = DiffusionRowsRequest{}
	s := wire.NewScanner(data)
	var seen uint
	for it := s.Object(); it.Next(); {
		switch string(s.Key()) {
		case "u":
			once(&s, &seen, 1)
			r.U = s.Int()
		case "v":
			once(&s, &seen, 2)
			r.V = s.Int()
		case "topic":
			once(&s, &seen, 4)
			r.Topic = s.Int()
		case "bucket":
			once(&s, &seen, 8)
			r.Bucket = s.Int()
		case "vrow":
			once(&s, &seen, 16)
			r.VRow = s.Floats()
		case "rowsGeneration":
			once(&s, &seen, 32)
			r.RowsGeneration = s.Uint64()
		default:
			s.Fail()
		}
	}
	return s.End()
}
