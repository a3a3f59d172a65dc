package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.bench.Harness.{Cell, Row}

class HarnessSpec extends AnyFunSuite {

  private def row(dataset: String, method: String, seq: Double, par: Double): Row =
    Row(dataset, method, Cell(Some(seq), None), Cell(Some(par), None))

  test("speedupTable's second column counts Borůvka as a sequential EMST method") {
    val emst = Seq(
      row("A", "EMST-MemoGFK", seq = 4.0, par = 1.0),
      row("A", "EMST-GFK", seq = 6.0, par = 2.0),
      row("B", "EMST-MemoGFK", seq = 2.0, par = 1.0))
    val hdbscan = Seq(row("A", "HDBSCAN*-MemoGFK", seq = 8.0, par = 2.0))
    // Borůvka is faster than every method on A and slower on B.
    val sp = Harness.speedupTable(emst, hdbscan, Seq("A" -> 3.0, "B" -> 5.0))
      .map(s => s.method -> s).toMap

    val memo = sp("EMST-MemoGFK")
    assert(memo.overBestRange == ((2.0, 4.0)) && memo.overBestAvg == 3.0)
    assert(memo.overAllRange == ((2.0, 3.0)) && memo.overAllAvg == 2.5)
    assert(memo.selfRange == ((2.0, 4.0)))
    assert(sp("EMST-GFK").overBestRange == ((2.0, 2.0)))
    assert(sp("EMST-GFK").overAllRange == ((1.5, 1.5)))
    // Borůvka solves only the EMST: HDBSCAN* speedups ignore it.
    val hd = sp("HDBSCAN*-MemoGFK")
    assert(hd.overAllRange == hd.overBestRange && hd.overAllAvg == hd.overBestAvg)
    assert(hd.overBestRange == ((4.0, 4.0)))
  }
}
