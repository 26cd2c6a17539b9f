(** A bounded, domain-safe key-value cache with FIFO eviction.

    Backs the daemon's result cache and its prepared-query cache (see
    {!Serve}).  Both are keyed on the mode and normalized query text;
    each value carries the store generation it is valid at, and an
    update re-tags or drops every entry in one {!filter_map_inplace}
    pass.  FIFO rather than LRU: eviction order only matters under
    pressure, and FIFO needs no bookkeeping on the (hot, shared) read
    path. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity <= 0] disables the cache ({!add} is a no-op). *)

val find : ('k, 'v) t -> 'k -> 'v option

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (replacing any previous binding); evicts the oldest
    insertions once over capacity. *)

val filter_map_inplace : ('k, 'v) t -> ('k -> 'v -> 'v option) -> unit
(** Rebind every key [k] bound to [v] to [v'] when [f k v = Some v'],
    and remove it when [f k v = None], under one acquisition of the
    lock.  Kept keys keep their eviction order. *)

val clear : ('k, 'v) t -> unit
val length : ('k, 'v) t -> int
