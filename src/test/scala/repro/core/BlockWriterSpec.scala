package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.cloudstore.{CloudStorage, FetchLedger, LocalCloudStorage, NetworkModel, RangeReq}

class BlockWriterSpec extends SparkSpec {

  /** (word, blobId, offset, length) rows, with a repeated posting. */
  private val rows = Seq(
    ("a", 0, 10L, 5), ("a", 0, 30L, 5), ("a", 1, 0L, 7), ("a", 0, 10L, 5),
    ("b", 2, 1L << 35, 9),
    ("c", 0, 30L, 5), ("c", 1, 0L, 7))

  private def expected(word: String): Vector[Posting] =
    rows.filter(_._1 == word).map { case (_, b, o, l) => Posting(b, o, l) }.distinct.sorted.toVector

  private def written(bucket: String, df: DataFrame, numBlocks: Int) = {
    val store = new LocalCloudStorage(NetworkModel())
    CloudStorage.register(bucket, store)
    try {
      val (ptrs, blobs) = BlockWriter.write(BlockWriter.lists(df, "word"), Seq("word"), numBlocks,
                                            bucket, "p/blk")(_.getString(0))
      (store, ptrs.toMap, blobs)
    } finally CloudStorage.unregister(bucket)
  }

  private def frame(rs: Seq[(String, Int, Long, Int)]): DataFrame = {
    import spark.implicits._
    rs.toDF("word", "blobId", "offset", "length")
  }

  test("block ids are dense over the partitions that wrote a blob") {
    val raw = Array("a" -> BinPointer(5, 0, 3), "b" -> BinPointer(0, 0, 2),
                    "c" -> BinPointer(5, 3, 4), "d" -> BinPointer(2, 0, 1))
    val (ptrs, blobs) = BlockWriter.denseBlocks(raw, "p/blk")
    assert(blobs.toSeq == Seq("p/blk-0", "p/blk-2", "p/blk-5"))
    assert(ptrs.toSeq == Seq("a" -> BinPointer(2, 0, 3), "b" -> BinPointer(0, 0, 2),
                             "c" -> BinPointer(2, 3, 4), "d" -> BinPointer(1, 0, 1)))
  }

  test("the blobs written are exactly the blocks the pointers name") {
    val (empty, noPtrs, noBlobs) = written("bw-empty", frame(Nil), numBlocks = 4)
    assert(noPtrs.isEmpty && noBlobs.isEmpty && empty.list().isEmpty)
    val (store, ptrs, blobs) = written("bw-few", frame(rows), numBlocks = 8)
    assert(ptrs.keySet == Set("a", "b", "c"))
    assert(store.list().sorted == blobs.toSeq.sorted)
    assert(ptrs.values.map(_.block).toSet == blobs.indices.toSet)
    blobs.foreach(b => assert(store.size(b) > 0, b))
  }

  test("each pointer reads back exactly its key's encoded postings list") {
    Seq(1, 2, 8).foreach { numBlocks =>
      val (store, ptrs, blobs) = written(s"bw-bytes-$numBlocks", frame(rows), numBlocks)
      ptrs.foreach { case (w, p) =>
        val got = store.getRange(RangeReq(blobs(p.block), p.offset.toLong, p.length), new FetchLedger)
        assert(got.toSeq == PostingsCodec.encode(expected(w)).toSeq, s"$w at $numBlocks blocks")
      }
      // Lists are laid out back to back, in key order, within each block.
      ptrs.toSeq.sortBy(_._1).groupBy(_._2.block).foreach { case (block, es) =>
        val ps = es.map(_._2)
        assert(ps.head.offset == 0)
        ps.zip(ps.tail).foreach { case (x, y) => assert(y.offset == x.offset + x.length) }
        assert(store.size(blobs(block)) == ps.last.offset + ps.last.length)
      }
    }
  }
}
