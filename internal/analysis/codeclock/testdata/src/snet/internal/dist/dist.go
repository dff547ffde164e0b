// Fixture stand-in for snet/internal/dist: just enough surface for the
// codeclock analyzer to resolve Codec encode calls by type.
package dist

type Codec struct{}

func (c *Codec) Marshal(v any) ([]byte, error) { return nil, nil }

func (c *Codec) AppendMarshal(dst []byte, v any) ([]byte, error) { return dst, nil }

func (c *Codec) MarshalBatch(v []any) ([]byte, error) { return nil, nil }
