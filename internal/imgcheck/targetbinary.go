package imgcheck

import (
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/updatecheck"
)

// VerifyTargetBinary checks an image set against the binary it is about
// to be restored into: every thread PC and every stack return address
// must resolve in the *target* binary's stack maps. Verify and friends
// prove an image set is internally consistent; this pass proves it is
// consistent with a particular binary, catching version skew (image
// dumped against one build, restored into another) before any state is
// rebuilt. The analysis itself is updatecheck's pass 3; it lives here so
// restore-path callers get every pre-flight from one package.
func VerifyTargetBinary(dir *image.ImageDir, b *updatecheck.Binary) error {
	return updatecheck.CheckImage(image.Open(dir), b).Err()
}
