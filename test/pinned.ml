(* A processor pinned to one configuration whatever the suite's
   environment (the CI legs set GHOSTBUSTERS_NO_CHAIN, _INJECT and
   _WORKERS): chaining on, no injected faults, and [workers] worker
   domains when given, the environment's count otherwise. *)
let processor ?workers mode program =
  let config = Gb_system.Processor.config_for mode in
  let engine = config.Gb_system.Processor.engine in
  let cache =
    { engine.Gb_dbt.Engine.cache with Gb_dbt.Code_cache.chain = true }
  in
  let workers = Option.value workers ~default:engine.Gb_dbt.Engine.workers in
  let engine = { engine with Gb_dbt.Engine.cache; workers } in
  let config = { config with Gb_system.Processor.engine } in
  let inject = Sys.getenv_opt Gb_system.Inject.env_var in
  Unix.putenv Gb_system.Inject.env_var "";
  let p = Gb_system.Processor.create ~config program in
  Option.iter (Unix.putenv Gb_system.Inject.env_var) inject;
  p
