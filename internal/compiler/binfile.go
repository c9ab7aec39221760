package compiler

import (
	"fmt"
	"sort"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// delfMagic identifies a serialized DELF binary.
const delfMagic = "DELF1\n"

// MarshalBinary serializes a Binary (including its stack-map metadata) to
// the DELF on-disk format, a tagged imgproto message.
func MarshalBinary(b *Binary) []byte {
	var e imgproto.Encoder
	e.Uint64(1, uint64(b.Arch))
	e.BytesField(2, b.Text)
	e.BytesField(3, b.Data)
	e.Fixed64(4, b.Entry)
	e.Fixed64(5, b.ThreadExit)
	names := make([]string, 0, len(b.Symbols))
	for name := range b.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		addr := b.Symbols[name]
		e.Message(6, func(n *imgproto.Encoder) {
			n.String(1, name)
			n.Fixed64(2, addr)
		})
	}
	e.BytesField(7, marshalMetadata(b.Meta))
	return append([]byte(delfMagic), e.Bytes()...)
}

// UnmarshalBinary parses a DELF blob.
func UnmarshalBinary(blob []byte) (*Binary, error) {
	if len(blob) < len(delfMagic) || string(blob[:len(delfMagic)]) != delfMagic {
		return nil, fmt.Errorf("compiler: not a DELF binary")
	}
	b := &Binary{Symbols: map[string]uint64{}}
	err := imgproto.NewDecoder(blob[len(delfMagic):]).Each(func(f uint32, d *imgproto.Decoder) error {
		switch f {
		case 1:
			v, err := d.FieldUint64()
			b.Arch = isa.Arch(v)
			return err
		case 2:
			raw, err := d.FieldBytes()
			b.Text = append([]byte(nil), raw...)
			return err
		case 3:
			raw, err := d.FieldBytes()
			b.Data = append([]byte(nil), raw...)
			return err
		case 4:
			v, err := d.FieldUint64()
			b.Entry = v
			return err
		case 5:
			v, err := d.FieldUint64()
			b.ThreadExit = v
			return err
		case 6:
			var name string
			var addr uint64
			if err := d.FieldMessage(func(nf uint32, nd *imgproto.Decoder) error {
				switch nf {
				case 1:
					s, err := nd.FieldString()
					name = s
					return err
				case 2:
					v, err := nd.FieldUint64()
					addr = v
					return err
				}
				return nil
			}); err != nil {
				return err
			}
			b.Symbols[name] = addr
			return nil
		case 7:
			raw, err := d.FieldBytes()
			if err != nil {
				return err
			}
			m, err := unmarshalMetadata(raw)
			if err != nil {
				return err
			}
			b.Meta = m
			return nil
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("compiler: parse DELF: %w", err)
	}
	if b.Meta == nil {
		return nil, fmt.Errorf("compiler: DELF missing metadata section")
	}
	return b, nil
}

func marshalMetadata(m *stackmap.Metadata) []byte {
	var e imgproto.Encoder
	for _, fn := range m.Funcs {
		e.Message(1, func(fe *imgproto.Encoder) {
			fe.String(1, fn.Name)
			fe.Fixed64(2, fn.Addr)
			fe.Fixed64(3, fn.Size)
			fe.Uint64(4, uint64(fn.NumParams))
			fe.Bool(5, fn.Blocking)
			fe.Bool(6, fn.Wrapper)
			fe.Int64(7, fn.FrameLocal[0])
			fe.Int64(8, fn.FrameLocal[1])
			for i := range fn.Slots {
				s := &fn.Slots[i]
				fe.Message(9, func(se *imgproto.Encoder) {
					se.Uint64(1, uint64(s.ID))
					se.String(2, s.Name)
					se.Uint64(3, uint64(s.Kind))
					se.Int64(4, s.Size)
					se.Bool(5, s.Ptr)
					se.Int64(6, s.Off[0])
					se.Int64(7, s.Off[1])
					se.Bool(8, s.PairAccessed[0])
					se.Bool(9, s.PairAccessed[1])
				})
			}
			if fn.EntrySite != nil {
				fe.BytesField(10, marshalSite(fn.EntrySite))
			}
			for _, cs := range fn.CallSites {
				fe.BytesField(11, marshalSite(cs))
			}
		})
	}
	return e.Bytes()
}

func marshalSite(s *stackmap.Site) []byte {
	var e imgproto.Encoder
	e.Uint64(1, uint64(s.ID))
	e.String(2, s.Func)
	e.Uint64(3, uint64(s.Kind))
	for i := 0; i < 2; i++ {
		e.Message(4, func(pe *imgproto.Encoder) {
			pe.Fixed64(1, s.PCs[i].TrapPC)
			pe.Fixed64(2, s.PCs[i].ResumePC)
			pe.Fixed64(3, s.PCs[i].RetAddr)
		})
	}
	for _, lv := range s.Live {
		e.Message(5, func(le *imgproto.Encoder) {
			le.Uint64(1, uint64(lv.SlotID))
			le.Bool(2, lv.Ptr)
			for i := 0; i < 2; i++ {
				le.Message(3, func(ce *imgproto.Encoder) {
					ce.Bool(1, lv.Loc[i].InReg)
					ce.Int64(2, int64(lv.Loc[i].DwarfReg))
					ce.Int64(3, lv.Loc[i].FrameOff)
				})
			}
		})
	}
	return e.Bytes()
}

func unmarshalMetadata(raw []byte) (*stackmap.Metadata, error) {
	m := &stackmap.Metadata{}
	err := imgproto.NewDecoder(raw).Each(func(f uint32, d *imgproto.Decoder) error {
		if f != 1 {
			return nil
		}
		fn := &stackmap.Func{}
		if err := d.FieldMessage(func(nf uint32, nd *imgproto.Decoder) error {
			switch nf {
			case 1:
				s, err := nd.FieldString()
				fn.Name = s
				return err
			case 2:
				v, err := nd.FieldUint64()
				fn.Addr = v
				return err
			case 3:
				v, err := nd.FieldUint64()
				fn.Size = v
				return err
			case 4:
				v, err := nd.FieldUint64()
				fn.NumParams = int(v)
				return err
			case 5:
				v, err := nd.FieldBool()
				fn.Blocking = v
				return err
			case 6:
				v, err := nd.FieldBool()
				fn.Wrapper = v
				return err
			case 7:
				v, err := nd.FieldInt64()
				fn.FrameLocal[0] = v
				return err
			case 8:
				v, err := nd.FieldInt64()
				fn.FrameLocal[1] = v
				return err
			case 9:
				var s stackmap.Slot
				if err := nd.FieldMessage(func(sf uint32, sd *imgproto.Decoder) error {
					switch sf {
					case 1:
						v, err := sd.FieldUint64()
						s.ID = int(v)
						return err
					case 2:
						v, err := sd.FieldString()
						s.Name = v
						return err
					case 3:
						v, err := sd.FieldUint64()
						s.Kind = stackmap.SlotKind(v)
						return err
					case 4:
						v, err := sd.FieldInt64()
						s.Size = v
						return err
					case 5:
						v, err := sd.FieldBool()
						s.Ptr = v
						return err
					case 6:
						v, err := sd.FieldInt64()
						s.Off[0] = v
						return err
					case 7:
						v, err := sd.FieldInt64()
						s.Off[1] = v
						return err
					case 8:
						v, err := sd.FieldBool()
						s.PairAccessed[0] = v
						return err
					case 9:
						v, err := sd.FieldBool()
						s.PairAccessed[1] = v
						return err
					}
					return nil
				}); err != nil {
					return err
				}
				fn.Slots = append(fn.Slots, s)
				return nil
			case 10:
				raw, err := nd.FieldBytes()
				if err != nil {
					return err
				}
				site, err := unmarshalSite(raw)
				if err != nil {
					return err
				}
				fn.EntrySite = site
				return nil
			case 11:
				raw, err := nd.FieldBytes()
				if err != nil {
					return err
				}
				site, err := unmarshalSite(raw)
				if err != nil {
					return err
				}
				fn.CallSites = append(fn.CallSites, site)
				return nil
			}
			return nil
		}); err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, fn)
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.Index()
	return m, nil
}

func unmarshalSite(raw []byte) (*stackmap.Site, error) {
	s := &stackmap.Site{}
	pcIdx := 0
	err := imgproto.NewDecoder(raw).Each(func(f uint32, d *imgproto.Decoder) error {
		switch f {
		case 1:
			v, err := d.FieldUint64()
			s.ID = int(v)
			return err
		case 2:
			v, err := d.FieldString()
			s.Func = v
			return err
		case 3:
			v, err := d.FieldUint64()
			s.Kind = stackmap.SiteKind(v)
			return err
		case 4:
			idx := pcIdx
			pcIdx++
			if idx >= 2 {
				return fmt.Errorf("too many PC records")
			}
			return d.FieldMessage(func(pf uint32, pd *imgproto.Decoder) error {
				v, err := pd.FieldUint64()
				if err != nil {
					return err
				}
				switch pf {
				case 1:
					s.PCs[idx].TrapPC = v
				case 2:
					s.PCs[idx].ResumePC = v
				case 3:
					s.PCs[idx].RetAddr = v
				}
				return nil
			})
		case 5:
			var lv stackmap.LiveValue
			locIdx := 0
			if err := d.FieldMessage(func(lf uint32, ld *imgproto.Decoder) error {
				switch lf {
				case 1:
					v, err := ld.FieldUint64()
					lv.SlotID = int(v)
					return err
				case 2:
					v, err := ld.FieldBool()
					lv.Ptr = v
					return err
				case 3:
					idx := locIdx
					locIdx++
					if idx >= 2 {
						return fmt.Errorf("too many locations")
					}
					return ld.FieldMessage(func(cf uint32, cd *imgproto.Decoder) error {
						switch cf {
						case 1:
							v, err := cd.FieldBool()
							lv.Loc[idx].InReg = v
							return err
						case 2:
							v, err := cd.FieldInt64()
							lv.Loc[idx].DwarfReg = int(v)
							return err
						case 3:
							v, err := cd.FieldInt64()
							lv.Loc[idx].FrameOff = v
							return err
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			s.Live = append(s.Live, lv)
			return nil
		}
		return nil
	})
	return s, err
}
