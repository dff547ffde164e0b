// Fixture impersonating snet/internal/wire for the codeclock analyzer:
// codec encodes and conn writes must happen under the link write mutex.
package wire

import (
	"net"
	"sync"

	"snet/internal/dist"
)

type peer struct {
	wmu   sync.Mutex
	conn  net.Conn
	codec *dist.Codec
}

func (p *peer) goodSend(v any) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	b, err := p.codec.Marshal(v)
	if err != nil {
		return err
	}
	_, err = p.conn.Write(b)
	return err
}

// writeLocked follows the naming convention: callers hold p.wmu.
func (p *peer) writeLocked(b []byte) error {
	_, err := p.conn.Write(b)
	return err
}

func (p *peer) badEncode(v any) {
	b, _ := p.codec.Marshal(v) // want "dist.Codec.Marshal outside the link write mutex"
	_, _ = p.conn.Write(b)     // want "net.Conn.Write outside the link write mutex"
}

func (p *peer) badBatch(vs []any) {
	_, _ = p.codec.MarshalBatch(vs) // want "dist.Codec.MarshalBatch outside the link write mutex"
}

func (p *peer) badAppend(dst []byte, v any) {
	_, _ = p.codec.AppendMarshal(dst, v) // want "dist.Codec.AppendMarshal outside the link write mutex"
}

func (p *peer) badUnlockThenWrite(b []byte) {
	p.wmu.Lock()
	p.wmu.Unlock()
	_, _ = p.conn.Write(b) // want "net.Conn.Write outside the link write mutex"
}

func (p *peer) badClosure(b []byte) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	go func() {
		_, _ = p.conn.Write(b) // want "net.Conn.Write outside the link write mutex"
	}()
}

func (p *peer) handshake(b []byte) {
	_, _ = p.conn.Write(b) //lint:reason handshake write: no other goroutine can reach this conn yet
}
