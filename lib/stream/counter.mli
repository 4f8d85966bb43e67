(** Tree-mechanism continual counter with retained dyadic nodes.

    The classic binary mechanism keeps only its open frontier; this
    counter keeps every closed node, so the private prefix count {e
    and} any sliding-window count decompose into O(log T) noisy blocks
    over the same tree — windows are free post-processing, priced by
    the one whole-stream face charge of [epsilon * levels].

    Memory is O(appends): only closed nodes are stored, about 2 floats
    per append, independent of the declared horizon.

    Appends are split into {!prepare} (draw the noise the closing
    nodes take) and {!commit} (apply given node values), so a caller
    can make the noisy values durable between the two. Crash recovery
    replays journaled values through {!commit} alone: bit-identical
    node state, zero PRNG draws consumed. *)

type t

val levels : horizon:int -> int
(** [ceil (log2 horizon)], min 1 — the number of retained node levels
    and the log factor in the stream's face charge. *)

val max_horizon : int

val create : epsilon:float -> horizon:int -> t
(** [epsilon] is the per-level budget (each record meets exactly one
    node per level, so the stream costs [epsilon * levels ~horizon]
    in total). O(levels) time and memory whatever the horizon: node
    storage grows with the appends committed. Raises
    [Invalid_argument] on a non-positive epsilon or a horizon outside
    [2, max_horizon]. *)

val t_now : t -> int
val true_count : t -> int
val depth : t -> int
(** Number of node levels (the journal-safe tree-depth gauge). *)

val noise_scale : t -> float
(** Laplace scale for one node: [1 / epsilon]. *)

val prepare : t -> bit:int -> noise:(unit -> float) -> float array
(** Noisy values the nodes closing at the next step would take, one
    [noise ()] draw per closing node, lowest level first. Does not
    mutate the counter. *)

val commit : t -> bit:int -> float array -> unit
(** Apply one append with the given closing-node values — the second
    half of a live append, and the whole of a journal replay. Raises
    [Invalid_argument] when the value count does not match the levels
    closing at this step, leaving the counter unchanged. *)

val read : t -> float
(** Private count of the whole observed prefix. Deterministic given
    the committed node values. *)

val window : t -> w:int -> (float, string) result
(** Private count of the last [w] observed steps ([w] is clamped to
    the observed prefix). Deterministic given the committed nodes. *)

val read_variance : t -> float
(** Exact noise variance of {!read} at the current step: blocks in the
    prefix decomposition times [2/epsilon^2]. *)
