(** Typed updates over dirty databases.

    A delta is a batch of update operations against a {!Dirty_db.t}:
    tuple insert/delete, cluster split/merge (the unclean database
    evolving as the matching tool revises its clustering), and
    probability reassignment.  Operations apply sequentially; after
    each structural operation the touched clusters are renormalized
    through {!Repair} under the [Renormalize] policy, so a valid
    database stays valid and untouched clusters keep their exact
    probability bits.

    Batches serialize to CSV rows (the journaled delta record format,
    see DESIGN §5k).  Values round-trip bit for bit through
    {!Value.to_exact_string}/{!Value.parse}, as the store's table
    snapshots do, so replaying a journaled delta over a loaded
    snapshot is deterministic. *)

type op =
  | Insert of { table : string; row : Value.t array }
      (** Append one tuple (full row in schema order, including the
          identifier and probability attributes).  Joins an existing
          cluster when the identifier value is known, otherwise starts
          a new one. *)
  | Delete of { table : string; cluster : Value.t; member : int }
      (** Remove the [member]-th tuple (0-based, row order) of the
          cluster.  Deleting the last tuple removes the cluster. *)
  | Split of {
      table : string;
      cluster : Value.t;
      into : Value.t;
      members : int list;
    }
      (** Move the listed member ordinals of [cluster] into cluster
          [into] (fresh or existing).  Both sides renormalize. *)
  | Merge of { table : string; from_ : Value.t; into : Value.t }
      (** Relabel every tuple of cluster [from_] as [into]; the merged
          cluster renormalizes. *)
  | Reassign of { table : string; cluster : Value.t; weights : float array }
      (** Replace the cluster's probabilities with
          [w_i / sum(w)] (one weight per member, row order).  Weights
          already summing to 1 are assigned bit-exactly. *)

type batch = op list

exception Invalid of string
(** Raised by {!apply} and {!of_rows} on an operation that does not
    validate against the database (unknown table/cluster, ordinal out
    of range, bad weights, arity mismatch) or a malformed record. *)

type outcome = {
  db : Dirty_db.t;  (** the updated database *)
  touched : (string * Value.t) list;
      (** distinct (table, cluster id) pairs affected by the batch, in
          first-touch order.  The [POST /update] reply and
          [conquer update] report their count; [Fuzz.Updategen]'s
          grid mode reassigns each one back onto the sixteenths grid.
          Clusters that no longer exist (deleted, merged away) are
          still listed. *)
  actions : Repair.action list;
      (** renormalizations performed, in application order *)
}

val apply : Dirty_db.t -> batch -> outcome
(** Apply the batch sequentially. @raise Invalid as described above;
    the input database is never partially modified (application is
    functional). *)

(** {1 Record format} *)

val op_table : op -> string
val op_to_row : op -> string list
val to_rows : batch -> string list list
val of_rows : string list list -> batch
val op_to_string : op -> string
(** One-line human description, used by the CLI and the query log. *)
