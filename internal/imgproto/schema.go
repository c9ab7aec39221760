package imgproto

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// A struct states its wire format once, in `img` field tags:
//
//	img:"N[,fixed|zigzag][,omitempty][,split]"  the field is field N
//	img:",inline"     the struct field's own tagged fields are merged in
//	img:"N,retired"   on a blank field: N was once in use, and is refused
//
// Integers are varints (two's complement when signed) unless fixed64 or
// zig-zag; bools are 0/1 varints; strings and []byte are length-delimited;
// a struct, or a non-nil pointer to one, is a nested message. A slice or
// an array repeats field N per element; split puts array element k at
// N+k. omitempty leaves a zero value out. A map[string]V is one {1 key,
// 2 value} message per entry, in key order, the options applying to V.
// Untagged fields are not part of the format.
//
// Marshal writes fields in number order. Unmarshal skips unknown numbers,
// takes a varint or a fixed64 for any integer, and refuses, naming the
// field, a value its Go field overflows or one array element too many.

// ErrRetiredField is what Unmarshal returns for a field number its
// schema retired.
var ErrRetiredField = errors.New("retired field")

// Marshal encodes v, a pointer to a struct, by its img tags.
func Marshal(v any) []byte {
	rv := reflect.ValueOf(v).Elem()
	var e Encoder
	e.fields(schemaOf(rv.Type()), rv)
	return e.buf
}

// Unmarshal decodes b into v, a pointer to a zero struct, by its img tags.
func Unmarshal(b []byte, v any) error {
	rv := reflect.ValueOf(v).Elem()
	return decode(b, schemaOf(rv.Type()), rv)
}

// schema is one struct type's wire format.
type schema struct {
	typ    reflect.Type
	fields []*field // in field-number order
	byNum  []slot   // indexed by field number
	arrays int      // repeated arrays, which count their elements as they decode
}

// slot is what a field number decodes into: element k of a split array,
// or the whole field.
type slot struct {
	f *field
	k int
}

type field struct {
	name                     string // Type.Field, for errors
	num                      uint32
	index                    []int // through inline structs
	fixed, zigzag, omitempty bool
	split, retired, isMap    bool
	repeated                 bool    // a slice or an array: one field per element
	array                    int     // a repeated array's element counter
	elem                     *schema // of a message, or of a map entry
}

var (
	schemas  sync.Map   // reflect.Type → *schema, each complete
	building sync.Mutex // serialises buildSchema, so a type is built once
)

func schemaOf(t reflect.Type) *schema {
	if s, ok := schemas.Load(t); ok {
		return s.(*schema)
	}
	building.Lock()
	defer building.Unlock()
	return buildSchema(t)
}

// buildSchema resolves t's schema and the schemas of every message type
// below it before publishing any, so t must not contain itself. The caller
// holds building; a tag that does not parse is a bug in the type, and
// panics.
func buildSchema(t reflect.Type) *schema {
	if s, ok := schemas.Load(t); ok {
		return s.(*schema)
	}
	s := &schema{typ: t}
	s.addFields(t, nil, t.Name()+".")
	slices.SortFunc(s.fields, func(a, b *field) int { return cmp.Compare(a.num, b.num) })
	for _, f := range s.fields {
		n := 1
		if f.split {
			n = t.FieldByIndex(f.index).Type.Len()
		}
		for k := 0; k < n; k++ {
			num := int(f.num) + k
			if num >= len(s.byNum) {
				s.byNum = append(s.byNum, make([]slot, num+1-len(s.byNum))...)
			}
			if s.byNum[num].f != nil {
				panic(fmt.Sprintf("imgproto: %s: field number %d used twice", t, num))
			}
			s.byNum[num] = slot{f, k}
		}
	}
	schemas.Store(t, s)
	return s
}

func (s *schema) addFields(t reflect.Type, index []int, prefix string) {
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("img")
		if !ok {
			continue
		}
		opts := strings.Split(tag, ",")
		idx := append(slices.Clip(index), i)
		if slices.Contains(opts, "inline") {
			s.addFields(sf.Type, idx, prefix+sf.Name+".")
			continue
		}
		num, err := strconv.ParseUint(opts[0], 10, 29)
		if err != nil || num == 0 {
			panic(fmt.Sprintf("imgproto: %s.%s: bad field number in tag %q", t, sf.Name, tag))
		}
		f := &field{name: prefix + sf.Name, num: uint32(num), index: idx}
		for _, o := range opts[1:] {
			flag := map[string]*bool{"fixed": &f.fixed, "zigzag": &f.zigzag, "omitempty": &f.omitempty, "split": &f.split, "retired": &f.retired}[o]
			if flag == nil {
				panic(fmt.Sprintf("imgproto: %s.%s: unknown tag option %q", t, sf.Name, o))
			}
			*flag = true
		}
		et := sf.Type
		switch {
		case f.retired:
			f.name = strings.TrimSuffix(prefix, ".")
		case et.Kind() == reflect.Map:
			f.isMap = true
			value := reflect.StructTag(`img:"2` + strings.TrimPrefix(tag, opts[0]) + `"`)
			et = reflect.StructOf([]reflect.StructField{
				{Name: "Key", Type: et.Key(), Tag: `img:"1"`},
				{Name: "Value", Type: et.Elem(), Tag: value},
			})
		case et.Kind() == reflect.Array && !f.split:
			f.array = s.arrays
			s.arrays++
			fallthrough
		case et.Kind() == reflect.Array, et.Kind() == reflect.Slice && et.Elem().Kind() != reflect.Uint8:
			f.repeated = true
			et = et.Elem()
		}
		if et.Kind() == reflect.Pointer {
			et = et.Elem()
		}
		if et.Kind() == reflect.Struct && !f.retired {
			f.elem = buildSchema(et)
		}
		s.fields = append(s.fields, f)
	}
}

// fields appends v's fields, v being of s's type.
func (e *Encoder) fields(s *schema, v reflect.Value) {
	for _, f := range s.fields {
		fv := v.FieldByIndex(f.index)
		switch {
		case f.retired, f.omitempty && fv.IsZero():
		case f.isMap:
			keys := fv.MapKeys()
			slices.SortFunc(keys, func(a, b reflect.Value) int { return strings.Compare(a.String(), b.String()) })
			entry := reflect.New(f.elem.typ).Elem()
			for _, k := range keys {
				entry.Field(0).Set(k)
				entry.Field(1).Set(fv.MapIndex(k))
				e.Message(f.num, func(e *Encoder) { e.fields(f.elem, entry) })
			}
		case f.repeated:
			for k := 0; k < fv.Len(); k++ {
				num := f.num
				if f.split {
					num += uint32(k)
				}
				e.value(f, num, fv.Index(k))
			}
		default:
			e.value(f, f.num, fv)
		}
	}
}

// value appends one occurrence of field num holding v, an element of f.
func (e *Encoder) value(f *field, num uint32, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			e.value(f, num, v.Elem())
		}
	case reflect.Struct:
		e.Message(num, func(e *Encoder) { e.fields(f.elem, v) })
	case reflect.String:
		e.String(num, v.String())
	case reflect.Slice:
		e.BytesField(num, v.Bytes())
	case reflect.Bool:
		e.Bool(num, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if f.zigzag {
			e.Int64(num, v.Int())
		} else {
			e.number(f, num, uint64(v.Int()))
		}
	default:
		e.number(f, num, v.Uint())
	}
}

func (e *Encoder) number(f *field, num uint32, u uint64) {
	if f.fixed {
		e.Fixed64(num, u)
	} else {
		e.Uint64(num, u)
	}
}

// decode reads the message b into v, of s's type.
func decode(b []byte, s *schema, v reflect.Value) error {
	var counts [4]int // elements decoded so far, per repeated array
	seen := counts[:]
	if s.arrays > len(counts) {
		seen = make([]int, s.arrays)
	}
	d := decoder{buf: b}
	for d.off < len(d.buf) {
		if err := d.next(); err != nil {
			return err
		}
		if int(d.field) >= len(s.byNum) || s.byNum[d.field].f == nil {
			continue
		}
		sl := s.byNum[d.field]
		if err := d.setField(sl, v.FieldByIndex(sl.f.index), seen); err != nil {
			var named *FieldError
			if !errors.As(err, &named) {
				err = &FieldError{Field: d.field, Name: sl.f.name, Err: err}
			}
			return err
		}
	}
	return nil
}

// setField decodes the current field into fv, the struct field sl names.
func (d *decoder) setField(sl slot, fv reflect.Value, seen []int) error {
	f := sl.f
	switch {
	case f.retired:
		return ErrRetiredField
	case f.isMap:
		entry := reflect.New(f.elem.typ).Elem()
		if err := d.set(f, entry); err != nil {
			return err
		}
		if fv.IsNil() {
			fv.Set(reflect.MakeMap(fv.Type()))
		}
		fv.SetMapIndex(entry.Field(0), entry.Field(1))
		return nil
	case f.split:
		return d.set(f, fv.Index(sl.k))
	case f.repeated && fv.Kind() == reflect.Array:
		k := seen[f.array]
		if k == fv.Len() {
			return fmt.Errorf("more than %d elements", k)
		}
		seen[f.array]++
		return d.set(f, fv.Index(k))
	case f.repeated:
		n := fv.Len()
		fv.Grow(1)
		fv.SetLen(n + 1)
		el := fv.Index(n)
		el.SetZero()
		return d.set(f, el)
	}
	return d.set(f, fv)
}

// set decodes the current field's payload into v, one element of f.
func (d *decoder) set(f *field, v reflect.Value) error {
	if want := v.Kind(); want == reflect.Pointer || want == reflect.Struct || want == reflect.String || want == reflect.Slice {
		if d.wt != WireBytes {
			return fmt.Errorf("want bytes, got wire type %d", d.wt)
		}
	} else if d.wt == WireBytes {
		return fmt.Errorf("want numeric, got wire type %d", d.wt)
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		return decode(d.raw, f.elem, v.Elem())
	case reflect.Struct:
		return decode(d.raw, f.elem, v)
	case reflect.String:
		v.SetString(string(d.raw))
	case reflect.Slice:
		v.SetBytes(append([]byte(nil), d.raw...))
	case reflect.Bool:
		v.SetBool(d.u64 != 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		i := int64(d.u64)
		if f.zigzag {
			i = UnZigZag(d.u64)
		}
		if v.OverflowInt(i) {
			return fmt.Errorf("%d overflows %s", i, v.Type())
		}
		v.SetInt(i)
	default:
		if v.OverflowUint(d.u64) {
			return fmt.Errorf("%d overflows %s", d.u64, v.Type())
		}
		v.SetUint(d.u64)
	}
	return nil
}
