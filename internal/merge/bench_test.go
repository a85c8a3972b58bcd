package merge

import (
	"context"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// BenchmarkMerge measures the structural integration of the largest real
// corpus (Hotels, 30 interfaces) and of megaSubset (192 mega-preset
// sources), each over its table with the derived mapping.
func BenchmarkMerge(b *testing.B) {
	b.Run("Hotels", func(b *testing.B) {
		d, err := dataset.ByName("Hotels")
		if err != nil {
			b.Fatal(err)
		}
		trees := d.Generate()
		cluster.ExpandOneToMany(trees)
		benchMergeTable(b, trees)
	})
	b.Run("mega", func(b *testing.B) { benchMergeTable(b, megaSubset(b)) })
}

// benchMergeTable times MergeTable over the table of the expanded trees.
func benchMergeTable(b *testing.B, trees []*schema.Tree) {
	tab := tableOf(b, trees)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeTable(context.Background(), tab); err != nil {
			b.Fatal(err)
		}
	}
}
