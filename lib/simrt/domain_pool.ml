let peak_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words
