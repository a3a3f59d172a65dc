package repro.par

import java.util.concurrent.{Callable, ForkJoinTask}

/** Binary fork-join for the recursive kd-tree passes: the tree build and
  * the bottom-up node passes. Whether a pass forks is decided here, by the
  * same rule `CoreDist` and `Kruskal` use: only a parallel scheme
  * (`par.targetTasks > 1`) forks, so the sequential column stays on one
  * thread.
  */
object Fork {

  /** Evaluates `a` and `b` and returns both results. Under a parallel
    * scheme `b` is forked on the JVM's common fork-join pool while the
    * calling thread evaluates `a`, and runs inline if no worker has taken
    * it by then. Otherwise both run on the calling thread, `a` first. An
    * exception thrown by either reaches the caller, or is the cause of what
    * does.
    */
  def join2[A, B](par: ParScheme)(a: => A, b: => B): (A, B) =
    if (par.targetTasks <= 1) {
      val x = a
      (x, b)
    } else {
      val task = ForkJoinTask.adapt(new Callable[B] { override def call(): B = b })
      task.fork()
      val x = a
      (x, if (task.tryUnfork()) b else task.join())
    }
}
