package merge

import (
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// BenchmarkMerge measures the structural integration of the largest real
// corpus (Hotels, 30 interfaces) and of megaSubset (192 mega-preset
// sources).
func BenchmarkMerge(b *testing.B) {
	b.Run("Hotels", func(b *testing.B) {
		d, err := dataset.ByName("Hotels")
		if err != nil {
			b.Fatal(err)
		}
		// Trees are regenerated per iteration because Merge consumes the
		// 1:m-expanded trees.
		prepare := func() ([]*schema.Tree, *cluster.Mapping) {
			trees := d.Generate()
			cluster.ExpandOneToMany(trees)
			m, err := cluster.FromTrees(trees)
			if err != nil {
				b.Fatal(err)
			}
			return trees, m
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			trees, m := prepare()
			b.StartTimer()
			if _, err := Merge(trees, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mega", func(b *testing.B) {
		trees := megaSubset(b)
		m, err := cluster.FromTrees(trees)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Merge(trees, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}
