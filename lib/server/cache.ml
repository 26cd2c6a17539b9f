(* Mutex-guarded bounded cache, FIFO eviction.  The eviction queue
   holds exactly the bound keys, oldest first: [add] pushes only new
   keys and evicts what it pops, and [filter_map_inplace] filters the
   queue along with the table. *)

type ('k, 'v) t = {
  lock : Mutex.t;
  capacity : int;
  table : ('k, 'v) Hashtbl.t;
  order : 'k Queue.t;  (* insertion order, oldest first *)
}

let create ~capacity =
  {
    lock = Mutex.create ();
    capacity;
    table = Hashtbl.create (max 16 capacity);
    order = Queue.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find t k = locked t (fun () -> Hashtbl.find_opt t.table k)

let add t k v =
  if t.capacity > 0 then
    locked t @@ fun () ->
    if not (Hashtbl.mem t.table k) then Queue.push k t.order;
    Hashtbl.replace t.table k v;
    while Hashtbl.length t.table > t.capacity && not (Queue.is_empty t.order) do
      let oldest = Queue.pop t.order in
      Hashtbl.remove t.table oldest
    done

let filter_map_inplace t f =
  locked t @@ fun () ->
  Hashtbl.filter_map_inplace f t.table;
  let kept = Queue.create () in
  Queue.iter (fun k -> if Hashtbl.mem t.table k then Queue.push k kept) t.order;
  Queue.clear t.order;
  Queue.transfer kept t.order

let clear t =
  locked t @@ fun () ->
  Hashtbl.reset t.table;
  Queue.clear t.order

let length t = locked t (fun () -> Hashtbl.length t.table)
