package main

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/isa"
)

func TestCritDriver(t *testing.T) {
	dir := t.TempDir()
	img := criu.NewImageDir()
	img.Put("inventory.img", imgproto.Marshal(&criu.InventoryImage{Arch: isa.SX86, TIDs: []int{1}}))
	img.Put("files.img", imgproto.Marshal(&criu.FilesImage{ExePath: "/bin/x.sx86"}))
	img.Put("pages.img", nil)
	img.Put("pagemap.img", imgproto.Marshal(&criu.PagemapImage{}))
	path := filepath.Join(dir, "c.imgdir")
	if err := os.WriteFile(path, img.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"ls", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"decode", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"bogus", path}); err == nil {
		t.Error("unknown verb accepted")
	}
	if err := run([]string{"decode", "/nonexistent"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"decode"}); err == nil {
		t.Error("missing operand accepted")
	}
}
