package repro.geometry

import org.scalatest.funsuite.AnyFunSuite

import repro.TestUtil

class PointSetSpec extends AnyFunSuite {

  test("fromRows round-trips coordinates") {
    val ps = PointSet.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(ps.n == 2 && ps.dim == 2)
    assert(ps(0, 0) == 1.0 && ps(0, 1) == 2.0 && ps(1, 0) == 3.0 && ps(1, 1) == 4.0)
  }

  test("dist matches the naive formula") {
    val ps = PointSet.fromRows(Seq(Array(0.0, 0.0, 0.0), Array(1.0, 2.0, 2.0)))
    assert(math.abs(ps.dist(0, 1) - 3.0) < 1e-12)
    assert(math.abs(ps.dist2(0, 1) - 9.0) < 1e-12)
  }

  test("dist is symmetric and zero on the diagonal") {
    val ps = TestUtil.randomPoints(50, 4, seed = 1)
    for (i <- 0 until 10; j <- 0 until 10) {
      assert(ps.dist(i, j) == ps.dist(j, i))
    }
    (0 until 50).foreach(i => assert(ps.dist(i, i) == 0.0))
  }

  test("dist satisfies the triangle inequality on random points") {
    val ps = TestUtil.randomPoints(30, 3, seed = 2)
    for (i <- 0 until 10; j <- 0 until 10; k <- 0 until 10) {
      assert(ps.dist(i, k) <= ps.dist(i, j) + ps.dist(j, k) + 1e-9)
    }
  }

  test("fromRows rejects ragged input") {
    val e = intercept[IllegalArgumentException] {
      PointSet.fromRows(Seq(Array(1.0), Array(1.0, 2.0)))
    }
    assert(e.getMessage.contains("row 1 has 2 coordinates, expected 1"), e.getMessage)
  }

  test("constructor rejects bad dimensions") {
    intercept[IllegalArgumentException](new PointSet(new Array[Double](3), 2))
    intercept[IllegalArgumentException](new PointSet(new Array[Double](4), 0))
  }

  test("constructor rejects a NaN coordinate, naming the point") {
    val coords = TestUtil.randomPoints(50, 2, seed = 4).coords.clone()
    coords(2 * 17 + 1) = Double.NaN
    val e = intercept[IllegalArgumentException](new PointSet(coords, 2))
    assert(e.getMessage.contains("point 17 has non-finite coordinate 1"), e.getMessage)
  }

  test("fromRows rejects an infinite coordinate, naming the point") {
    val rows = Seq.tabulate(50)(i => Array(i.toDouble, 1.0, 2.0))
    rows(31)(0) = Double.NegativeInfinity
    val e = intercept[IllegalArgumentException](PointSet.fromRows(rows))
    assert(e.getMessage.contains("point 31 has non-finite coordinate 0"), e.getMessage)
  }

  test("point(i) returns an independent copy") {
    val ps = TestUtil.randomPoints(5, 2, seed = 3)
    val p = ps.point(1)
    p(0) = 1e9
    assert(ps(1, 0) != 1e9)
  }
}

class GeneratorsSpec extends AnyFunSuite {

  test("uniformFill is deterministic in its seed") {
    val a = Generators.uniformFill(100, 3, seed = 7)
    val b = Generators.uniformFill(100, 3, seed = 7)
    assert(a.coords.sameElements(b.coords))
  }

  test("uniformFill respects the sqrt(n) hypergrid side") {
    val n = 400
    val ps = Generators.uniformFill(n, 2, seed = 7)
    val side = math.sqrt(n.toDouble)
    assert(ps.coords.forall(c => c >= 0 && c < side))
  }

  test("different seeds give different points") {
    val a = Generators.uniformFill(100, 2, seed = 1)
    val b = Generators.uniformFill(100, 2, seed = 2)
    assert(!a.coords.sameElements(b.coords))
  }

  test("ssVarden produces the requested shape and is deterministic") {
    val a = Generators.ssVarden(500, 3, seed = 9)
    val b = Generators.ssVarden(500, 3, seed = 9)
    assert(a.n == 500 && a.dim == 3)
    assert(a.coords.sameElements(b.coords))
  }

  test("ssVarden has variable density (cluster distances differ from uniform)") {
    val ps = Generators.ssVarden(1000, 2, seed = 10)
    // Median nearest-neighbor distance should be far below the uniform
    // expectation because most points sit in dense clusters.
    val nn = (0 until 200).map { i =>
      (0 until 1000).filter(_ != i).map(j => ps.dist(i, j)).min
    }.sorted
    val uniform = Generators.uniformFill(1000, 2, seed = 10)
    val nnU = (0 until 200).map { i =>
      (0 until 1000).filter(_ != i).map(j => uniform.dist(j, i)).min
    }.sorted
    assert(nn(100) < nnU(100), s"expected clustered NN ${nn(100)} < uniform NN ${nnU(100)}")
  }

  test("geoLifeLike is 3D and skewed") {
    val ps = Generators.geoLifeLike(2000, seed = 5)
    assert(ps.dim == 3 && ps.n == 2000)
    // Skew: the densest 10% neighborhood is much tighter than the sparsest.
    val nn = (0 until 300).map { i =>
      (0 until 2000).filter(_ != i).map(j => ps.dist(i, j)).min
    }.sorted
    assert(nn(30) < nn(270) / 10.0, s"expected heavy skew: ${nn(30)} vs ${nn(270)}")
  }

  test("sensorLike produces the requested dimensionality") {
    for (d <- Seq(7, 10, 16)) {
      val ps = Generators.sensorLike(500, d, seed = 6)
      assert(ps.dim == d && ps.n == 500)
    }
  }

  test("benchmarkSets covers the paper's 12 data sets with scaled sizes") {
    val sets = Generators.benchmarkSets(2000)
    assert(sets.size == 12)
    val names = sets.map(_._1)
    assert(names.count(_.contains("UniformFill")) == 4)
    assert(names.count(_.contains("SS-varden")) == 4)
    assert(names.exists(_.contains("GeoLife")))
    assert(names.exists(_.contains("Household")))
    assert(names.exists(_.contains("HT")))
    assert(names.exists(_.contains("CHEM")))
    // Real-set substitutes scale with the paper's relative sizes.
    val household = sets.find(_._1.contains("Household")).get._2
    assert(household.n == math.round(2_049_280L * 2000 / 10_000_000.0).toInt)
    val chem = sets.find(_._1.contains("CHEM")).get._2
    assert(chem.dim == 16)
  }
}
