(** F3: PRNG stream provenance.

    Four checks:
    - {b crossing}: a stream owned by one subsystem (created there, or
      read from a [.rng]/[.jitter] field there) must not be passed into
      another subsystem's functions by domain code — composition roots
      outside every domain (bin/, bench/, tests) may stitch subsystems
      together, that being their job;
    - {b raw copies}: [Prng.copy] duplicates generator state, so any
      use inside a domain-owning subsystem replays a stream's future
      and breaks the mechanisms' independence assumptions;
    - {b duplicate constant seeds}: the same literal seed in
      [Prng.create] calls of two subsystems couples streams the
      privacy analysis treats as independent;
    - {b borrowed streams}: a read of a [.rng]/[.jitter] field inside
      a self-seeded domain ({!Spec.self_seeded_domains}: the
      certifier), which must draw only from streams split from its
      own seed. *)

val findings : Graph.t -> Dp_lint.Report.finding list
